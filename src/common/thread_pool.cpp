#include "common/thread_pool.hpp"

#include "common/status.hpp"

namespace petastat {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool::TaskRef ThreadPool::package(std::function<void()> work) {
  check(static_cast<bool>(work), "ThreadPool::package with empty work");
  auto task = std::make_shared<Task>();
  task->work_ = std::move(work);
  return task;
}

void ThreadPool::post(TaskRef task) {
  check(task != nullptr, "ThreadPool::post null task");
  post_job([this, task = std::move(task)]() { execute(task); });
}

void ThreadPool::post_job(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    check(!stopping_, "ThreadPool::post_job after shutdown");
    jobs_.push_back(std::move(job));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this]() { return stopping_ || !jobs_.empty(); });
    // A stopping pool still drains its queue: every job posted before
    // shutdown runs.
    if (jobs_.empty()) return;
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();
    job = nullptr;  // release captures outside the lock
    lock.lock();
    if (--in_flight_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::execute(const TaskRef& task) {
  task->work_();
  task->work_ = nullptr;  // release captures eagerly
  {
    // Setting the flag under the lock keeps the notify from slipping
    // between a waiter's predicate check and its wait.
    std::lock_guard<std::mutex> lock(mutex_);
    task->done_.store(true, std::memory_order_release);
    ++completed_;
  }
  done_cv_.notify_all();
}

void ThreadPool::wait(const TaskRef& task) {
  if (task == nullptr || task->done()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&task]() { return task->done(); });
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this]() { return in_flight_ == 0; });
}

}  // namespace petastat
