#include "sim/executor.hpp"

#include <atomic>

namespace petastat::sim {

/// One unit of work plus its completion flag, shared between the submitter
/// (who waits on it) and the worker (who runs it).
struct Executor::Task {
  explicit Task(std::function<void()> w) : work(std::move(w)) {}

  std::function<void()> work;
  std::atomic<bool> done{false};
};

Executor::Executor(unsigned threads) {
  if (threads <= 1) return;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

Executor::~Executor() {
  wait_all();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Executor::TaskRef Executor::run(std::function<void()> work) {
  if (!parallel()) {
    work();
    return nullptr;
  }
  auto task = std::make_shared<Task>(std::move(work));
  post(task);
  return task;
}

void Executor::post(TaskRef task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void Executor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this]() { return stopping_ || !tasks_.empty(); });
    // A stopping executor still drains its queue: every task posted before
    // shutdown runs.
    if (tasks_.empty()) return;
    const TaskRef task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    finish(*task);
    lock.lock();
    if (--in_flight_ == 0) done_cv_.notify_all();
  }
}

void Executor::finish(Task& task) {
  task.work();
  task.work = nullptr;  // release captures eagerly
  {
    // Setting the flag under the lock keeps the notify from slipping
    // between a waiter's predicate check and its wait.
    std::lock_guard<std::mutex> lock(mutex_);
    task.done.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

void Executor::wait(const TaskRef& task) {
  if (task == nullptr || task->done.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&task]() {
    return task->done.load(std::memory_order_acquire);
  });
}

void Executor::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this]() { return in_flight_ == 0; });
}

Executor::TaskRef Executor::Strand::run(std::function<void()> work) {
  if (!executor_.parallel()) {
    work();
    return nullptr;
  }
  auto task = std::make_shared<Task>(std::move(work));
  bool start_pump = false;
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    queue_->pending.push_back(task);
    if (!queue_->running) {
      queue_->running = true;
      start_pump = true;
    }
  }
  if (start_pump) {
    executor_.post(std::make_shared<Task>(
        [&executor = executor_, queue = queue_]() { pump(executor, queue); }));
  }
  return task;
}

void Executor::Strand::pump(Executor& executor,
                            const std::shared_ptr<Queue>& queue) {
  // Drain the chain one item at a time on this worker; if new items arrive
  // while draining, keep going. The running flag guarantees at most one
  // pump per strand, which is the serialization the accumulator needs.
  // A waiter on the final item may wake (and destroy the Strand) the moment
  // finish() marks it done — before the empty-check below — which is why
  // the queue is co-owned here rather than reached through the Strand.
  while (true) {
    TaskRef next;
    {
      std::lock_guard<std::mutex> lock(queue->mutex);
      if (queue->pending.empty()) {
        queue->running = false;
        return;
      }
      next = std::move(queue->pending.front());
      queue->pending.pop_front();
    }
    executor.finish(*next);
  }
}

}  // namespace petastat::sim
