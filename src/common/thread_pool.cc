#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

// Pool metrics are all scheduling artifacts — registered non-deterministic
// so deterministic exports drop them (queue depth and latency depend on
// thread count and OS timing by nature).
const obs::Gauge& QueueDepthGauge() {
  static const obs::Gauge g = obs::MetricsRegistry::Global().GetGauge(
      "icrowd.pool.queue_depth",
      {false, "tasks waiting in the shared pool queue"});
  return g;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  static const obs::Counter submitted =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.pool.tasks_submitted",
          {false, "tasks handed to the shared pool"});
  {
    MutexLock lock(mutex_);
    queue_.push({std::move(task), std::chrono::steady_clock::now()});
    ++in_flight_;
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  }
  submitted.Increment();
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(lock);
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.Unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Histogram wait_seconds = registry.GetHistogram(
      "icrowd.pool.task_wait_seconds", obs::ExponentialBuckets(1e-6, 4, 10),
      {false, "queue-to-dequeue latency per task"});
  const obs::Histogram run_seconds = registry.GetHistogram(
      "icrowd.pool.task_run_seconds", obs::ExponentialBuckets(1e-6, 4, 10),
      {false, "execution time per task"});
  // Heartbeat liveness contract (DESIGN.md §14): idle while parked on the
  // queue, busy while running a task — a task that never returns shows up
  // as a stalled-busy pool.worker heartbeat.
  obs::ScopedHeartbeat heartbeat("pool.worker");
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(mutex_);
      heartbeat->MarkIdle();
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      heartbeat->MarkBusy();
    }
    wait_seconds.Observe(SecondsSince(task.enqueued));
    auto run_start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    run_seconds.Observe(SecondsSince(run_start));
    {
      MutexLock lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  size_t runners = std::min(threads_.size(), count);
  if (runners <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Runners pull indices from a shared counter; `stop` short-circuits the
  // remaining indices once one call throws (the exception itself travels
  // through the pool's Wait() capture).
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto stop = std::make_shared<std::atomic<bool>>(false);
  for (size_t r = 0; r < runners; ++r) {
    Submit([next, stop, count, &fn] {
      for (;;) {
        if (stop->load(std::memory_order_relaxed)) return;
        size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          stop->store(true, std::memory_order_relaxed);
          throw;
        }
      }
    });
  }
  Wait();
}

void ThreadPool::ParallelFor(size_t count, size_t num_threads,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, count);
  if (num_threads <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  Mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) return;
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace icrowd
