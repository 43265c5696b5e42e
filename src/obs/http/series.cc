#include "obs/http/series.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "obs/heartbeat.h"

namespace icrowd {
namespace obs {

namespace {

using internal::FormatDouble;
using internal::FormatFixedPoint;

/// Per-window histogram: bucket-by-bucket difference of two cumulative
/// snapshots. A shrunken bucket (or changed shape) means the underlying
/// cells were reset mid-series, in which case the current snapshot IS the
/// window — same never-negative rule as counter rates.
HistogramSnapshot DeltaHistogram(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur) {
  bool reset = prev.buckets.size() != cur.buckets.size();
  if (!reset) {
    for (size_t b = 0; b < cur.buckets.size(); ++b) {
      if (cur.buckets[b] < prev.buckets[b]) {
        reset = true;
        break;
      }
    }
  }
  if (reset) return cur;
  HistogramSnapshot delta;
  delta.bounds = cur.bounds;
  delta.buckets.resize(cur.buckets.size());
  for (size_t b = 0; b < cur.buckets.size(); ++b) {
    delta.buckets[b] = cur.buckets[b] - prev.buckets[b];
    delta.count += delta.buckets[b];
  }
  delta.sum = cur.sum - prev.sum;
  return delta;
}

}  // namespace

MetricsHistory::MetricsHistory(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void MetricsHistory::Sample(const MetricsRegistry& registry,
                            double now_seconds) {
  SeriesSnapshot snapshot;
  snapshot.t_seconds = now_seconds;
  snapshot.samples = registry.SnapshotAll();
  MutexLock lock(mu_);
  if (ring_.size() == capacity_) ring_.erase(ring_.begin());
  ring_.push_back(std::move(snapshot));
}

size_t MetricsHistory::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

std::string MetricsHistory::RenderJson() const {
  std::vector<SeriesSnapshot> ring;
  {
    MutexLock lock(mu_);
    ring = ring_;
  }
  std::ostringstream out;
  out << "{\"capacity\":" << capacity_ << ",\"snapshots\":" << ring.size()
      << ",\"windows\":[";
  for (size_t w = 1; w < ring.size(); ++w) {
    const SeriesSnapshot& prev = ring[w - 1];
    const SeriesSnapshot& cur = ring[w];
    const double dt = cur.t_seconds - prev.t_seconds;
    if (w > 1) out << ",";
    out << "{\"t_start\":" << FormatDouble(prev.t_seconds)
        << ",\"t_end\":" << FormatDouble(cur.t_seconds)
        << ",\"duration_seconds\":" << FormatDouble(dt);
    // One merge walk over the two name-sorted sample vectors fills all
    // three sections; a metric absent from the previous snapshot (newly
    // registered) counts from zero.
    std::ostringstream rates;
    std::ostringstream gauges;
    std::ostringstream latency;
    bool first_rate = true;
    bool first_gauge = true;
    bool first_latency = true;
    size_t pi = 0;
    for (const MetricSample& c : cur.samples) {
      while (pi < prev.samples.size() && prev.samples[pi].name < c.name) {
        ++pi;
      }
      const MetricSample* p =
          (pi < prev.samples.size() && prev.samples[pi].name == c.name &&
           prev.samples[pi].kind == c.kind)
              ? &prev.samples[pi]
              : nullptr;
      switch (c.kind) {
        case MetricKind::kCounter: {
          const uint64_t delta =
              (p != nullptr && c.counter >= p->counter)
                  ? c.counter - p->counter
                  : c.counter;  // reset (or new metric): fresh start
          const double rate =
              dt > 0.0 ? static_cast<double>(delta) / dt : 0.0;
          if (!first_rate) rates << ",";
          first_rate = false;
          rates << "\"" << c.name << "\":" << FormatDouble(rate);
          break;
        }
        case MetricKind::kGauge:
          if (!first_gauge) gauges << ",";
          first_gauge = false;
          gauges << "\"" << c.name
                 << "\":" << FormatFixedPoint(c.gauge_fp);
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot delta =
              p != nullptr ? DeltaHistogram(p->histogram, c.histogram)
                           : c.histogram;
          if (!first_latency) latency << ",";
          first_latency = false;
          latency << "\"" << c.name << "\":{\"count\":" << delta.count
                  << ",\"p50\":" << FormatDouble(delta.Percentile(50))
                  << ",\"p99\":" << FormatDouble(delta.Percentile(99))
                  << "}";
          break;
        }
      }
    }
    out << ",\"rates\":{" << rates.str() << "},\"gauges\":{"
        << gauges.str() << "},\"latency\":{" << latency.str() << "}}";
  }
  out << "]}\n";
  return out.str();
}

SeriesSampler::SeriesSampler(MetricsHistory* history,
                             SeriesSamplerOptions options)
    : history_(history), options_(options), epoch_ns_(SteadyNanos()) {
  MutexLock lock(mu_);
  thread_ = std::make_unique<std::thread>([this] { Loop(); });
}

SeriesSampler::~SeriesSampler() { Stop(); }

void SeriesSampler::Stop() {
  std::unique_ptr<std::thread> thread;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    stop_cv_.NotifyAll();
    thread = std::move(thread_);
  }
  // Joined outside the lock: the loop reacquires mu_ to re-check
  // stopping_, so joining under it would deadlock.
  if (thread != nullptr && thread->joinable()) thread->join();
}

double SeriesSampler::NowSeconds() {
  if (options_.clock != nullptr) return options_.clock->Now();
  return static_cast<double>(SteadyNanos() - epoch_ns_) * 1e-9;
}

void SeriesSampler::Loop() {
  ScopedHeartbeat heartbeat("obs.series_sampler");
  const MetricsRegistry& registry = options_.registry != nullptr
                                        ? *options_.registry
                                        : MetricsRegistry::Global();
  const auto period = std::chrono::nanoseconds(std::max<int64_t>(
      static_cast<int64_t>(options_.period_seconds * 1e9), 1'000'000));
  MutexLock lock(mu_);
  while (!stopping_) {
    heartbeat->MarkIdle();
    stop_cv_.WaitFor(lock, period);
    if (stopping_) break;
    heartbeat->MarkBusy();
    lock.Unlock();
    history_->Sample(registry, NowSeconds());
    samples_.fetch_add(1, std::memory_order_relaxed);
    lock.Lock();
  }
}

}  // namespace obs
}  // namespace icrowd
