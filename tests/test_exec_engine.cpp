// Unit tests for the execution engine, sim::Executor: inline vs worker
// submission, per-task completion, the job FIFO under concurrent producers,
// and strand serialization. The determinism of full scenario runs is covered
// end to end by test_parallel_determinism; this suite pins the substrate
// contracts those runs rely on — and is the surface the TSan CI job hammers
// (ctest also runs it repeated and shuffled as test_exec_engine_repeat).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "sim/executor.hpp"

namespace petastat {
namespace {

// --------------------------------------------------------------------------
// Tasks and the job FIFO

TEST(ExecutorTasks, WaitMakesSideEffectsVisible) {
  sim::Executor exec(4);
  int value = 0;
  const sim::Executor::TaskRef task = exec.run([&value]() { value = 42; });
  ASSERT_NE(task, nullptr);
  exec.wait(task);
  EXPECT_EQ(value, 42);
}

TEST(ExecutorTasks, NullTaskIsAlreadyDone) {
  sim::Executor exec(2);
  exec.wait(nullptr);  // must not hang or crash
}

TEST(ExecutorTasks, ZeroThreadsIsInline) {
  sim::Executor exec(0);
  EXPECT_FALSE(exec.parallel());
  EXPECT_EQ(exec.thread_count(), 1u);
  int value = 0;
  EXPECT_EQ(exec.run([&value]() { value = 3; }), nullptr);
  EXPECT_EQ(value, 3);
  exec.wait_all();
}

TEST(ExecutorTasks, WaitAllDrainsEverything) {
  sim::Executor exec(4);
  std::atomic<int> ran{0};
  constexpr int kJobs = 200;
  for (int i = 0; i < kJobs; ++i) {
    exec.run([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  exec.wait_all();
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(ExecutorTasks, DestructorCompletesOutstandingWork) {
  std::atomic<int> ran{0};
  {
    sim::Executor exec(2);
    sim::Executor::Strand strand(exec);
    for (int i = 0; i < 50; ++i) {
      exec.run([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
      strand.run([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait: the destructor must still let queued tasks and strand chains
    // finish (workers only exit once the queue is empty) and release all
    // keepalives.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ExecutorTasks, ManyWaitersManyTasks) {
  sim::Executor exec(4);
  constexpr int kTasks = 500;
  std::vector<int> results(kTasks, 0);
  std::vector<sim::Executor::TaskRef> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(exec.run([&results, i]() { results[i] = i; }));
  }
  // Wait in reverse order: most waits will be on already-done tasks.
  for (int i = kTasks - 1; i >= 0; --i) exec.wait(tasks[i]);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(results[i], i);
}

TEST(ExecutorTasks, ConcurrentProducersRunEveryJobOnce) {
  // Producers submit plain tasks and strand items from several threads
  // while waiter threads block on those tasks, many of them before they
  // have run. Every job must run exactly once (the TSan CI job runs this).
  constexpr int kProducers = 4;
  constexpr int kWaiters = 2;
  constexpr int kPerProducer = 1000;  // half plain tasks, half strand items
  constexpr int kJobs = kProducers * kPerProducer;
  sim::Executor exec(4);
  std::vector<std::atomic<int>> runs(kJobs);
  std::vector<sim::Executor::TaskRef> tasks(kJobs);
  std::vector<std::atomic<bool>> submitted(kJobs);
  std::vector<std::unique_ptr<sim::Executor::Strand>> strands;
  for (int p = 0; p < kProducers; ++p) {
    strands.push_back(std::make_unique<sim::Executor::Strand>(exec));
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p]() {
      for (int j = p * kPerProducer; j < (p + 1) * kPerProducer; ++j) {
        const auto job = [&runs, j]() {
          runs[j].fetch_add(1, std::memory_order_relaxed);
        };
        tasks[j] = j % 2 == 0 ? exec.run(job) : strands[p]->run(job);
        submitted[j].store(true, std::memory_order_release);
      }
    });
  }
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&, w]() {
      // Opposite ends of the job list, so one waiter mostly waits on jobs
      // that are already done and the other on ones just submitted.
      for (int i = 0; i < kJobs; ++i) {
        const int j = w == 0 ? i : kJobs - 1 - i;
        while (!submitted[j].load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        exec.wait(tasks[j]);
        EXPECT_EQ(runs[j].load(std::memory_order_relaxed), 1) << "job " << j;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  exec.wait_all();
  for (int j = 0; j < kJobs; ++j) EXPECT_EQ(runs[j].load(), 1) << "job " << j;
}

// --------------------------------------------------------------------------
// Inline mode and strands

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
