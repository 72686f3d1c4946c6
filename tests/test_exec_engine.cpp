// Unit tests for the execution-engine layer: ThreadPool (worker pool with
// per-task completion) and sim::Executor (inline vs pooled submission, strand
// serialization). The determinism of full scenario runs is covered end to
// end by test_parallel_determinism; this suite pins the substrate contracts
// those runs rely on — and is the surface the TSan CI job hammers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/executor.hpp"

namespace petastat {
namespace {

// --------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, WaitMakesSideEffectsVisible) {
  ThreadPool pool(4);
  int value = 0;
  auto task = ThreadPool::package([&value]() { value = 42; });
  pool.post(task);
  pool.wait(task);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(task->done());
}

TEST(ThreadPool, NullTaskIsAlreadyDone) {
  ThreadPool pool(1);
  pool.wait(nullptr);  // must not hang or crash
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, WaitIdleDrainsEverything) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kJobs = 200;
  for (int i = 0; i < kJobs; ++i) {
    pool.post(ThreadPool::package([&ran]() {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(pool.completed(), static_cast<std::uint64_t>(kJobs));
}

TEST(ThreadPool, ExecuteRunsOnCallingThread) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto task = ThreadPool::package([&ran_on]() {
    ran_on = std::this_thread::get_id();
  });
  pool.execute(task);
  EXPECT_TRUE(task->done());
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, DestructorCompletesOutstandingWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.post(ThreadPool::package([&ran]() {
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // No wait: destructor must still let queued work finish (workers only
    // exit once the submission queue is empty) and release all keepalives.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ManyWaitersManyTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 500;
  std::vector<int> results(kTasks, 0);
  std::vector<ThreadPool::TaskRef> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(ThreadPool::package([&results, i]() { results[i] = i; }));
    pool.post(tasks.back());
  }
  // Wait in reverse order: most waits will be on already-done tasks.
  for (int i = kTasks - 1; i >= 0; --i) pool.wait(tasks[i]);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(results[i], i);
}

TEST(ThreadPool, ConcurrentProducersRunEveryJobOnce) {
  // Producers post packaged tasks and raw jobs from several threads while
  // waiter threads block on those tasks, some before they are even posted.
  // Every job must run exactly once (the TSan CI job runs this).
  constexpr int kProducers = 4;
  constexpr int kWaiters = 2;
  constexpr int kPerProducer = 1000;  // half tasks, half raw jobs
  constexpr int kJobs = kProducers * kPerProducer;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(kJobs);
  std::vector<ThreadPool::TaskRef> tasks(kJobs);
  for (int j = 0; j < kJobs; j += 2) {
    tasks[j] = ThreadPool::package(
        [&runs, j]() { runs[j].fetch_add(1, std::memory_order_relaxed); });
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&pool, &runs, &tasks, p]() {
      for (int j = p * kPerProducer; j < (p + 1) * kPerProducer; ++j) {
        if (tasks[j] != nullptr) {
          pool.post(tasks[j]);
        } else {
          pool.post_job([&runs, j]() {
            runs[j].fetch_add(1, std::memory_order_relaxed);
          });
        }
      }
    });
  }
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&pool, &tasks, w]() {
      // Opposite ends of the task list, so one waiter mostly waits on
      // tasks that are already done and the other on ones not yet posted.
      for (int i = 0; i < kJobs; i += 2) {
        pool.wait(tasks[w == 0 ? i : kJobs - 2 - i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  pool.wait_idle();
  for (int j = 0; j < kJobs; ++j) EXPECT_EQ(runs[j].load(), 1) << "job " << j;
  for (int j = 0; j < kJobs; j += 2) EXPECT_TRUE(tasks[j]->done());
  EXPECT_EQ(pool.completed(), static_cast<std::uint64_t>(kJobs / 2));
}

// --------------------------------------------------------------------------
// sim::Executor

TEST(Executor, SerialModeRunsInline) {
  sim::Executor exec(1);
  EXPECT_FALSE(exec.parallel());
  EXPECT_EQ(exec.thread_count(), 1u);
  int value = 0;
  sim::Executor::TaskRef task = exec.run([&value]() { value = 7; });
  EXPECT_EQ(task, nullptr);  // already done, no pool involved
  EXPECT_EQ(value, 7);       // side effects visible immediately
  exec.wait(task);
  exec.wait_all();
}

TEST(Executor, ParallelModeRunsOnWorkers) {
  sim::Executor exec(4);
  EXPECT_TRUE(exec.parallel());
  EXPECT_EQ(exec.thread_count(), 4u);
  std::atomic<int> ran{0};
  std::vector<sim::Executor::TaskRef> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(exec.run([&ran]() {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (const auto& task : tasks) exec.wait(task);
  EXPECT_EQ(ran.load(), 100);
}

TEST(Executor, WaitAllIsABarrier) {
  sim::Executor exec(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    exec.run([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  exec.wait_all();
  EXPECT_EQ(ran.load(), 64);
}

TEST(Executor, StrandSerializesInSubmissionOrder) {
  sim::Executor exec(8);
  sim::Executor::Strand strand(exec);
  // The strand items append to an unsynchronized vector: only the strand's
  // serialization guarantee makes this safe, and only FIFO order makes the
  // content deterministic. TSan validates the former, the EXPECT the latter.
  std::vector<int> order;
  constexpr int kItems = 300;
  sim::Executor::TaskRef last;
  for (int i = 0; i < kItems; ++i) {
    last = strand.run([&order, i]() { order.push_back(i); });
  }
  exec.wait(last);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, StrandsRunConcurrentlyWithEachOther) {
  sim::Executor exec(4);
  constexpr int kStrands = 8;
  constexpr int kItems = 50;
  std::vector<std::unique_ptr<sim::Executor::Strand>> strands;
  std::vector<std::vector<int>> orders(kStrands);
  std::vector<sim::Executor::TaskRef> lasts(kStrands);
  for (int s = 0; s < kStrands; ++s) {
    strands.push_back(std::make_unique<sim::Executor::Strand>(exec));
  }
  // Interleave submissions across strands, as the reduction does when
  // arrivals alternate between sibling subtrees.
  for (int i = 0; i < kItems; ++i) {
    for (int s = 0; s < kStrands; ++s) {
      lasts[s] = strands[s]->run([&orders, s, i]() {
        orders[s].push_back(i);
      });
    }
  }
  for (int s = 0; s < kStrands; ++s) exec.wait(lasts[s]);
  for (int s = 0; s < kStrands; ++s) {
    ASSERT_EQ(orders[s].size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) EXPECT_EQ(orders[s][i], i);
  }
}

// Regression test for the strand-lifetime race: a waiter on the final item
// wakes the moment the item is marked done, which can be before the pump's
// trailing empty-check — destroying the Strand right after wait() must be
// safe. Many iterations to give the race a chance to fire.
TEST(Executor, StrandMayBeDestroyedRightAfterFinalWait) {
  sim::Executor exec(4);
  for (int iteration = 0; iteration < 500; ++iteration) {
    int value = 0;
    {
      sim::Executor::Strand strand(exec);
      sim::Executor::TaskRef last;
      for (int i = 0; i < 4; ++i) {
        last = strand.run([&value]() { ++value; });
      }
      exec.wait(last);
    }  // strand destroyed here, pump possibly still in its empty-check
    EXPECT_EQ(value, 4);
  }
  exec.wait_all();  // pumps must finish before `value` leaves scope
}

TEST(Executor, SerialStrandRunsInline) {
  sim::Executor exec(1);
  sim::Executor::Strand strand(exec);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(strand.run([&order, i]() { order.push_back(i); }), nullptr);
  }
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, DestructorWaitsForOutstandingWork) {
  std::atomic<int> ran{0};
  {
    sim::Executor exec(4);
    for (int i = 0; i < 32; ++i) {
      exec.run([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~Executor must drain before `ran` goes out of scope
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace petastat
