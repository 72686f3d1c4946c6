// Fixed-size worker pool: one mutex-guarded FIFO of jobs, one condition
// variable for idle workers and one for waiters.
//
// This is the execution substrate of the parallel engine: the simulator
// thread submits real computations (tree merges, trace synthesis) as Tasks,
// workers execute them, and the simulator waits for each at its modelled
// completion event. A run posts a few tens of thousands of jobs from one
// thread, so a single lock is nowhere near contended.
//
// Ordering: workers take jobs in submission order, but several workers run
// concurrently, so completions may come back in any order. Nothing in the
// engine depends on completion order — determinism is the sim::Executor's
// contract, built on top of the one guarantee made here: after wait(task)
// returns, the task's side effects are visible to the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace petastat {

class ThreadPool {
 public:
  /// One unit of work plus its completion flag, shared between the
  /// submitter (who waits on it) and the worker (who runs it).
  class Task {
   public:
    [[nodiscard]] bool done() const {
      return done_.load(std::memory_order_acquire);
    }

   private:
    friend class ThreadPool;
    std::function<void()> work_;
    std::atomic<bool> done_{false};
  };
  using TaskRef = std::shared_ptr<Task>;

  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Runs every job already posted, then joins the workers.
  ~ThreadPool();

  /// Wraps `work` in a Task without scheduling it. The task can be run by
  /// a worker via post() or on the calling thread via execute() — strands
  /// use the latter to serialize a chain inside one worker job.
  [[nodiscard]] static TaskRef package(std::function<void()> work);

  /// Enqueues a packaged task for any worker.
  void post(TaskRef task);

  /// Enqueues a raw job with no completion tracking (strand pumps).
  void post_job(std::function<void()> job);

  /// Runs `task` on the calling thread, marks it done and wakes waiters.
  void execute(const TaskRef& task);

  /// Blocks until `task` is done. A null ref counts as already done.
  void wait(const TaskRef& task);

  /// Blocks until every posted job has finished.
  void wait_idle();

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  /// Tasks executed so far (raw post_job jobs are not counted).
  [[nodiscard]] std::uint64_t completed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
  }

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a job or the stop
  std::condition_variable done_cv_;  // waiters wait for a task or idleness
  std::deque<std::function<void()>> jobs_;
  std::uint64_t in_flight_ = 0;  // posted jobs not yet finished
  std::uint64_t completed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace petastat
