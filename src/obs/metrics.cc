#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace icrowd {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_thread_index{0};
std::atomic<uint64_t> g_next_registry_id{1};

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

namespace internal {

/// Fixed-point cells are precisely representable with 9 fractional digits,
/// so this round-trips without the noise of %.17g.
std::string FormatFixedPoint(int64_t fp) {
  char buf[48];
  const char* sign = fp < 0 ? "-" : "";
  uint64_t magnitude = fp < 0 ? -static_cast<uint64_t>(fp)
                              : static_cast<uint64_t>(fp);
  uint64_t whole = magnitude / 1'000'000'000ull;
  uint64_t frac = magnitude % 1'000'000'000ull;
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, sign, whole);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%s%" PRIu64 ".%09" PRIu64, sign, whole,
                frac);
  std::string out = buf;
  while (out.back() == '0') out.pop_back();
  return out;
}

/// Shortest-ish deterministic rendering for doubles that did not come from
/// fixed-point cells (bucket bounds, event fields): same double in, same
/// string out.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace internal

namespace {
using internal::FormatDouble;
using internal::FormatFixedPoint;
}  // namespace

uint64_t ThisThreadIndex() {
  thread_local uint64_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(100.0, std::max(0.0, q));
  const double target = q / 100.0 * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[b]);
    if (next >= target) {
      if (b == bounds.size()) {
        // Overflow bucket: clamp to the largest finite bound (or the sample
        // mean when there are no finite buckets at all).
        return bounds.empty() ? Mean() : bounds.back();
      }
      const double upper = bounds[b];
      double lower;
      if (b == 0) {
        lower = upper > 0.0 ? 0.0 : upper;
      } else {
        lower = bounds[b - 1];
      }
      const double fraction =
          (target - cumulative) / static_cast<double>(buckets[b]);
      return lower + fraction * (upper - lower);
    }
    cumulative = next;
  }
  return bounds.empty() ? Mean() : bounds.back();
}

/// Per-thread storage: one cell array indexed by the registry's cell
/// allocator. Cells are written by the owning thread only (relaxed adds)
/// and read by snapshotting threads — atomics make that well-defined
/// without any recording-side lock.
struct MetricsRegistry::Shard {
  Shard() : cells(kShardCells) {}
  std::vector<std::atomic<int64_t>> cells;
};

namespace internal {

/// Thread-local shard cache with an exit hook: a thread that dies releases
/// its global-registry shard for reuse, so workloads that spawn one-shot
/// thread batches (the static ParallelFor) do not grow shards without
/// bound. Instance registries skip reuse — they must simply outlive their
/// recording threads (see the class comment).
struct TlsShardCache {
  struct Entry {
    uint64_t id = 0;
    MetricsRegistry* registry = nullptr;
    MetricsRegistry::Shard* shard = nullptr;
  };
  std::vector<Entry> entries;
  ~TlsShardCache();
};

}  // namespace internal

namespace {
thread_local internal::TlsShardCache t_shard_cache;
}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented code may record from detached threads
  // during process teardown; a destructed global registry would be a race
  // against every one of them.
  static auto* registry = new MetricsRegistry();
  return *registry;
}

namespace internal {
TlsShardCache::~TlsShardCache() {
  for (Entry& e : entries) {
    if (e.registry == &MetricsRegistry::Global()) {
      e.registry->ReleaseShard(e.shard);
    }
  }
}
}  // namespace internal

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      gauges_(new std::atomic<int64_t>[kMaxGauges]) {
  for (size_t i = 0; i < kMaxGauges; ++i) {
    gauges_[i].store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard* MetricsRegistry::LocalShard() {
  for (const internal::TlsShardCache::Entry& e : t_shard_cache.entries) {
    if (e.id == id_) return e.shard;
  }
  return LocalShardSlow();
}

MetricsRegistry::Shard* MetricsRegistry::LocalShardSlow() {
  Shard* shard = nullptr;
  {
    MutexLock lock(mutex_);
    if (!free_shards_.empty()) {
      shard = free_shards_.back();
      free_shards_.pop_back();
    } else {
      shards_.push_back(std::make_unique<Shard>());
      shard = shards_.back().get();
    }
  }
  t_shard_cache.entries.push_back({id_, this, shard});
  return shard;
}

void MetricsRegistry::ReleaseShard(Shard* shard) {
  MutexLock lock(mutex_);
  free_shards_.push_back(shard);
}

const MetricsRegistry::MetricInfo* MetricsRegistry::FindLocked(
    const std::string& name) const {
  for (const MetricInfo& info : metrics_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

Counter MetricsRegistry::GetCounter(const std::string& name,
                                    MetricOptions options) {
  MutexLock lock(mutex_);
  if (const MetricInfo* existing = FindLocked(name)) {
    if (existing->kind != MetricKind::kCounter) {
      std::fprintf(stderr, "obs: metric '%s' re-registered as counter\n",
                   name.c_str());
      return Counter();
    }
    return Counter(this, existing->cell);
  }
  if (next_cell_ + 1 > kShardCells) {
    std::fprintf(stderr, "obs: shard cell budget exhausted at '%s'\n",
                 name.c_str());
    return Counter();
  }
  MetricInfo info;
  info.name = name;
  info.kind = MetricKind::kCounter;
  info.options = options;
  info.cell = next_cell_++;
  metrics_.push_back(std::move(info));
  return Counter(this, metrics_.back().cell);
}

Gauge MetricsRegistry::GetGauge(const std::string& name,
                                MetricOptions options) {
  MutexLock lock(mutex_);
  if (const MetricInfo* existing = FindLocked(name)) {
    if (existing->kind != MetricKind::kGauge) {
      std::fprintf(stderr, "obs: metric '%s' re-registered as gauge\n",
                   name.c_str());
      return Gauge();
    }
    return Gauge(this, existing->gauge_slot);
  }
  if (num_gauges_ >= kMaxGauges) {
    std::fprintf(stderr, "obs: gauge slot budget exhausted at '%s'\n",
                 name.c_str());
    return Gauge();
  }
  MetricInfo info;
  info.name = name;
  info.kind = MetricKind::kGauge;
  info.options = options;
  info.gauge_slot = static_cast<uint32_t>(num_gauges_++);
  metrics_.push_back(std::move(info));
  return Gauge(this, metrics_.back().gauge_slot);
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        MetricOptions options) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  MutexLock lock(mutex_);
  if (const MetricInfo* existing = FindLocked(name)) {
    if (existing->kind != MetricKind::kHistogram ||
        *existing->bounds != bounds) {
      std::fprintf(stderr,
                   "obs: metric '%s' re-registered with different shape\n",
                   name.c_str());
      return Histogram();
    }
    return Histogram(this, existing->cell, existing->bounds);
  }
  // Cells: one per bucket, one overflow, one fixed-point sum.
  uint32_t needed = static_cast<uint32_t>(bounds.size()) + 2;
  if (next_cell_ + needed > kShardCells) {
    std::fprintf(stderr, "obs: shard cell budget exhausted at '%s'\n",
                 name.c_str());
    return Histogram();
  }
  MetricInfo info;
  info.name = name;
  info.kind = MetricKind::kHistogram;
  info.options = options;
  info.cell = next_cell_;
  info.num_cells = needed;
  info.bounds =
      std::make_shared<const std::vector<double>>(std::move(bounds));
  next_cell_ += needed;
  metrics_.push_back(std::move(info));
  const MetricInfo& stored = metrics_.back();
  return Histogram(this, stored.cell, stored.bounds);
}

void Counter::Increment(uint64_t n) const {
  if (registry_ == nullptr || !registry_->enabled()) return;
  MetricsRegistry::Shard* shard = registry_->LocalShard();
  shard->cells[cell_].fetch_add(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  if (registry_ == nullptr) return 0;
  MutexLock lock(registry_->mutex_);
  return static_cast<uint64_t>(registry_->SumCell(cell_));
}

void Gauge::Set(double v) const {
  if (registry_ == nullptr || !registry_->enabled()) return;
  registry_->gauges_[slot_].store(ToFixedPoint(v),
                                   std::memory_order_relaxed);
}

void Gauge::Add(double v) const {
  if (registry_ == nullptr || !registry_->enabled()) return;
  registry_->gauges_[slot_].fetch_add(ToFixedPoint(v),
                                       std::memory_order_relaxed);
}

double Gauge::Value() const {
  if (registry_ == nullptr) return 0.0;
  return FromFixedPoint(
      registry_->gauges_[slot_].load(std::memory_order_relaxed));
}

void Histogram::Observe(double v) const { Observe(v, 1); }

void Histogram::Observe(double v, uint64_t count) const {
  if (registry_ == nullptr || !registry_->enabled()) return;
  MetricsRegistry::Shard* shard = registry_->LocalShard();
  const std::vector<double>& bounds = *bounds_;
  size_t bucket = bounds.size();  // overflow (also where NaN lands)
  if (!std::isnan(v)) {
    bucket = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  }
  const int64_t n = static_cast<int64_t>(count);
  shard->cells[cell_ + bucket].fetch_add(n, std::memory_order_relaxed);
  shard->cells[cell_ + bounds.size() + 1].fetch_add(ToFixedPoint(v) * n,
                                                    std::memory_order_relaxed);
}

int64_t MetricsRegistry::SumCell(uint32_t cell) const {
  int64_t sum = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    sum += shard->cells[cell].load(std::memory_order_relaxed);
  }
  return sum;
}

void MetricsRegistry::RecordEvent(
    std::string type, std::vector<std::pair<std::string, double>> fields) {
  if (!enabled()) return;
  MutexLock lock(mutex_);
  events_.push_back({std::move(type), std::move(fields)});
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(mutex_);
  const MetricInfo* info = FindLocked(name);
  if (info == nullptr || info->kind != MetricKind::kCounter) return 0;
  return static_cast<uint64_t>(SumCell(info->cell));
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(mutex_);
  const MetricInfo* info = FindLocked(name);
  if (info == nullptr || info->kind != MetricKind::kGauge) return 0.0;
  return FromFixedPoint(
      gauges_[info->gauge_slot].load(std::memory_order_relaxed));
}

HistogramSnapshot MetricsRegistry::HistogramValue(
    const std::string& name) const {
  MutexLock lock(mutex_);
  HistogramSnapshot snapshot;
  const MetricInfo* info = FindLocked(name);
  if (info == nullptr || info->kind != MetricKind::kHistogram) {
    return snapshot;
  }
  snapshot.bounds = *info->bounds;
  snapshot.buckets.resize(snapshot.bounds.size() + 1);
  for (size_t b = 0; b < snapshot.buckets.size(); ++b) {
    snapshot.buckets[b] =
        static_cast<uint64_t>(SumCell(info->cell + static_cast<uint32_t>(b)));
    snapshot.count += snapshot.buckets[b];
  }
  snapshot.sum = FromFixedPoint(SumCell(
      info->cell + static_cast<uint32_t>(snapshot.bounds.size()) + 1));
  return snapshot;
}

std::vector<MetricSample> MetricsRegistry::SnapshotAll() const {
  std::vector<MetricSample> samples;
  {
    MutexLock lock(mutex_);
    samples.reserve(metrics_.size());
    for (const MetricInfo& info : metrics_) {
      MetricSample sample;
      sample.name = info.name;
      sample.kind = info.kind;
      sample.deterministic = info.options.deterministic;
      sample.help = info.options.help;
      switch (info.kind) {
        case MetricKind::kCounter:
          sample.counter = static_cast<uint64_t>(SumCell(info.cell));
          break;
        case MetricKind::kGauge:
          sample.gauge_fp =
              gauges_[info.gauge_slot].load(std::memory_order_relaxed);
          break;
        case MetricKind::kHistogram: {
          HistogramSnapshot& h = sample.histogram;
          h.bounds = *info.bounds;
          h.buckets.resize(h.bounds.size() + 1);
          for (size_t b = 0; b < h.buckets.size(); ++b) {
            h.buckets[b] = static_cast<uint64_t>(
                SumCell(info.cell + static_cast<uint32_t>(b)));
            h.count += h.buckets[b];
          }
          sample.hist_sum_fp = SumCell(
              info.cell + static_cast<uint32_t>(h.bounds.size()) + 1);
          h.sum = FromFixedPoint(sample.hist_sum_fp);
          break;
        }
      }
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

std::vector<TrajectoryEvent> MetricsRegistry::Events() const {
  MutexLock lock(mutex_);
  return events_;
}

void MetricsRegistry::ExportJsonl(std::ostream& out,
                                  const ExportOptions& options) const {
  // Built entirely in memory before the first write: streaming while
  // holding the registry mutex would serialize every recording thread's
  // slow path behind the caller's ostream (which can be a file — see the
  // DESIGN.md §15 regression note).
  out << ExportJsonlString(options);
}

std::string MetricsRegistry::ExportJsonlString(
    const ExportOptions& options) const {
  // Collect under the registry lock (one short critical section per
  // category), render outside it. The two categories are snapshotted
  // back-to-back, not atomically with each other; deterministic dumps are
  // taken at quiescent points so this never shows in their bytes.
  const std::vector<MetricSample> samples = SnapshotAll();
  std::vector<TrajectoryEvent> events;
  if (options.include_events) events = Events();

  std::ostringstream out;
  for (const MetricSample& sample : samples) {
    if (options.deterministic && !sample.deterministic) continue;
    switch (sample.kind) {
      case MetricKind::kCounter:
        out << "{\"kind\":\"counter\",\"name\":\"" << EscapeJson(sample.name)
            << "\",\"type\":\"metric\",\"value\":" << sample.counter
            << "}\n";
        break;
      case MetricKind::kGauge:
        out << "{\"kind\":\"gauge\",\"name\":\"" << EscapeJson(sample.name)
            << "\",\"type\":\"metric\",\"value\":"
            << FormatFixedPoint(sample.gauge_fp) << "}\n";
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = sample.histogram;
        out << "{\"buckets\":[";
        for (size_t b = 0; b < h.buckets.size(); ++b) {
          if (b > 0) out << ",";
          out << "[";
          if (b < h.bounds.size()) {
            out << "\"" << FormatDouble(h.bounds[b]) << "\"";
          } else {
            out << "\"+inf\"";
          }
          out << "," << h.buckets[b] << "]";
        }
        out << "],\"count\":" << h.count
            << ",\"kind\":\"histogram\",\"name\":\"" << EscapeJson(sample.name)
            << "\",\"sum\":" << FormatFixedPoint(sample.hist_sum_fp)
            << ",\"type\":\"metric\"}\n";
        break;
      }
    }
  }
  uint64_t seq = 0;
  for (const TrajectoryEvent& event : events) {
    out << "{\"fields\":{";
    std::vector<std::pair<std::string, double>> fields = event.fields;
    std::sort(fields.begin(), fields.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t f = 0; f < fields.size(); ++f) {
      if (f > 0) out << ",";
      out << "\"" << EscapeJson(fields[f].first)
          << "\":" << FormatDouble(fields[f].second);
    }
    out << "},\"kind\":\"" << EscapeJson(event.type)
        << "\",\"seq\":" << seq++ << ",\"type\":\"event\"}\n";
  }
  return out.str();
}

void MetricsRegistry::ResetForTesting() {
  MutexLock lock(mutex_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (std::atomic<int64_t>& cell : shard->cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < num_gauges_; ++i) {
    gauges_[i].store(0, std::memory_order_relaxed);
  }
  events_.clear();
}

}  // namespace obs
}  // namespace icrowd
