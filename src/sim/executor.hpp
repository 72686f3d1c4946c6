// Execution-engine seam between simulator callbacks and real computation.
//
// The discrete-event simulator is single-threaded and must stay
// deterministic: every modelled duration is computed arithmetically from the
// cost model, never from wall-clock measurement. But the *real* work the
// simulation carries along (prefix-tree merges, trace synthesis, remaps) has
// no effect on virtual time — so it can run on worker threads while the
// event loop continues, as long as no event observes a result before the
// virtual timestamp at which the model says it exists.
//
// The contract event handlers follow:
//   1. compute modelled costs inline (on the simulator thread, in event
//      order — this fixes all virtual timestamps up front);
//   2. submit the real computation via run() (any worker) or
//      Strand::run() (serialized chain, e.g. one TBON proc's accumulator);
//   3. schedule a simulator event at the modelled completion time whose
//      callback first wait()s on the task, then consumes the result.
// Because submission order, strand order, and wait points are all decided by
// the deterministic event loop, results are bit-identical to a serial run.
//
// A parallel Executor owns its workers directly: one mutex-guarded FIFO of
// tasks, one condition variable for idle workers and one for waiters. A run
// posts a few tens of thousands of tasks from one thread, so the single lock
// is nowhere near contended. Workers take tasks in submission order but
// finish them in any order; nothing depends on completion order, only on the
// one guarantee that after wait(task) returns, the task's side effects are
// visible to the caller.
//
// An Executor constructed with threads <= 1 has no workers: run() executes
// the work immediately on the calling thread and returns a null
// (already-done) task, which is exactly the historical serial behaviour.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace petastat::sim {

class Executor {
  struct Task;

 public:
  using TaskRef = std::shared_ptr<Task>;  // nullptr == already done (inline)

  /// threads <= 1: inline (serial) mode, no worker threads are spawned.
  explicit Executor(unsigned threads = 1);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  /// Runs everything submitted so far, then joins the workers.
  ~Executor();

  [[nodiscard]] bool parallel() const { return !workers_.empty(); }
  [[nodiscard]] unsigned thread_count() const {
    return parallel() ? static_cast<unsigned>(workers_.size()) : 1;
  }

  /// Submits independent work to any worker (inline mode: runs it now).
  TaskRef run(std::function<void()> work);

  /// Blocks until `task`'s side effects are visible. Null is a no-op.
  void wait(const TaskRef& task);

  /// Blocks until everything submitted so far (including strand chains) has
  /// finished.
  void wait_all();

  /// A FIFO chain of work items: items of one strand never run concurrently
  /// with each other (they share mutable state, e.g. a reduction
  /// accumulator), but different strands run in parallel. Submission order
  /// is execution order. The queue state is co-owned by the in-flight pump
  /// task, so a Strand may be destroyed as soon as its last item's wait()
  /// returns — the pump's final empty-check does not touch the Strand
  /// object. The Executor must outlive the pump (wait_all()/~Executor
  /// guarantee it).
  class Strand {
   public:
    explicit Strand(Executor& executor)
        : executor_(executor), queue_(std::make_shared<Queue>()) {}
    Strand(const Strand&) = delete;
    Strand& operator=(const Strand&) = delete;

    TaskRef run(std::function<void()> work);

   private:
    struct Queue {
      std::mutex mutex;
      std::deque<TaskRef> pending;
      bool running = false;
    };
    static void pump(Executor& executor, const std::shared_ptr<Queue>& queue);

    Executor& executor_;
    std::shared_ptr<Queue> queue_;
  };

 private:
  /// Queues `task` for any worker.
  void post(TaskRef task);
  /// Runs `task` on the calling worker, marks it done and wakes waiters.
  void finish(Task& task);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a task or the stop
  std::condition_variable done_cv_;  // waiters wait for a task or idleness
  std::deque<TaskRef> tasks_;
  std::uint64_t in_flight_ = 0;  // posted tasks not yet finished
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace petastat::sim
