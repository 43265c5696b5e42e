#include "ingest/event_queue.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

// Queue instrumentation is wall-clock/threading-shaped and therefore
// excluded from the deterministic export (the batch-invariance contract
// covers decisions, not how events were ferried between threads).
const obs::Gauge& DepthGauge() {
  static const obs::Gauge gauge = obs::MetricsRegistry::Global().GetGauge(
      "icrowd.ingest.queue_depth",
      {false, "events waiting in the ingest queue"});
  return gauge;
}

const obs::Counter& BackpressureCounter() {
  static const obs::Counter counter =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.ingest.backpressure_waits",
          {false, "producer blocks on a full ingest queue"});
  return counter;
}

}  // namespace

BoundedEventQueue::BoundedEventQueue(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

bool BoundedEventQueue::Push(const IngestEvent& event) {
  MutexLock lock(mu_);
  if (!closed_ && queue_.size() >= capacity_) {
    // One backpressure tick per blocking Push, however many times the
    // wait below wakes spuriously.
    ++backpressure_waits_;
    BackpressureCounter().Increment();
    while (!closed_ && queue_.size() >= capacity_) not_full_.Wait(lock);
  }
  if (closed_) return false;
  queue_.push_back(event);
  // Stamp enqueue time for per-stage latency attribution (DESIGN.md §14);
  // the consumer observes icrowd.ingest.queue_wait_seconds from it.
  queue_.back().enqueue_ns = SteadyNanos();
  ++pushed_;
  DepthGauge().Set(static_cast<double>(queue_.size()));
  lock.Unlock();
  not_empty_.NotifyOne();
  return true;
}

size_t BoundedEventQueue::PopBatch(std::vector<IngestEvent>* out,
                                   size_t max_events) {
  max_events = std::max<size_t>(max_events, 1);
  MutexLock lock(mu_);
  while (!closed_ && queue_.empty()) not_empty_.Wait(lock);
  size_t n = std::min(max_events, queue_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(queue_.front());
    queue_.pop_front();
  }
  popped_ += n;
  DepthGauge().Set(static_cast<double>(queue_.size()));
  lock.Unlock();
  if (n > 0) not_full_.NotifyAll();
  return n;
}

void BoundedEventQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
    // Publish the terminal depth: consumers may still drain, but a closed
    // queue with residue (abandoned events) should read true, not stale.
    DepthGauge().Set(static_cast<double>(queue_.size()));
  }
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

size_t BoundedEventQueue::SampleDepth() const {
  MutexLock lock(mu_);
  DepthGauge().Set(static_cast<double>(queue_.size()));
  return queue_.size();
}

bool BoundedEventQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

size_t BoundedEventQueue::depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

uint64_t BoundedEventQueue::backpressure_waits() const {
  MutexLock lock(mu_);
  return backpressure_waits_;
}

uint64_t BoundedEventQueue::events_pushed() const {
  MutexLock lock(mu_);
  return pushed_;
}

uint64_t BoundedEventQueue::events_popped() const {
  MutexLock lock(mu_);
  return popped_;
}

}  // namespace icrowd
