#ifndef ICROWD_OBS_METRICS_H_
#define ICROWD_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace icrowd {
namespace obs {

/// Process-wide dense thread index (0, 1, 2, ... in first-use order). Used
/// as the shard key and as the thread id in log lines and flight-recorder
/// records — small and stable within a run, unlike std::thread::id.
uint64_t ThisThreadIndex();

/// Fixed-point scale for double-valued metric cells. Doubles are folded
/// into int64 billionths before the atomic add: integer addition is
/// associative, so merged sums are bit-identical no matter how observations
/// were sharded across threads — the property the determinism contract
/// (DESIGN.md §7/§9) needs and a naive double accumulation cannot give.
inline constexpr double kFixedPointScale = 1e9;

inline int64_t ToFixedPoint(double v) {
  return static_cast<int64_t>(std::llround(v * kFixedPointScale));
}
inline double FromFixedPoint(int64_t v) {
  return static_cast<double>(v) / kFixedPointScale;
}

enum class MetricKind { kCounter, kGauge, kHistogram };

namespace internal {
struct TlsShardCache;  // thread-exit hook returning shards for reuse

/// Exact decimal rendering of a fixed-point (billionths) value and a
/// deterministic %.12g rendering for plain doubles — shared by the JSONL
/// and Prometheus exporters so both emit bit-identical numbers for the
/// same cells.
std::string FormatFixedPoint(int64_t fp);
std::string FormatDouble(double v);
/// Fixed %.6f rendering for time-valued fields (statusz, /buildz,
/// /healthz): one width everywhere, so equal state renders byte-equal.
std::string FormatSeconds(double v);
/// JSON string-body escaping (quotes, backslashes, control characters)
/// for every obs JSON writer.
std::string EscapeJson(const std::string& s);
}  // namespace internal

struct MetricOptions {
  /// Whether the metric's value is a pure function of the campaign inputs
  /// (seed, dataset, config) — independent of thread count, scheduling, and
  /// wall-clock. Deterministic exports drop everything marked false
  /// (timings, queue depths, per-thread scheduling artifacts).
  bool deterministic = true;
  const char* help = "";
};

class MetricsRegistry;

/// Cheap copyable handles. A default-constructed handle is inert (records
/// nothing), so instrumented code never needs null checks.
class Counter {
 public:
  Counter() = default;
  void Increment(uint64_t n = 1) const;
  /// Merged value across all shards.
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, uint32_t cell)
      : registry_(registry), cell_(cell) {}
  MetricsRegistry* registry_ = nullptr;
  uint32_t cell_ = 0;
};

/// Last-value-wins gauge. Stored registry-level (not sharded): gauge writes
/// are rare and a per-shard "last value" has no meaningful merge.
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) const;
  void Add(double v) const;
  double Value() const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, uint32_t slot)
      : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  uint32_t slot_ = 0;
};

/// Fixed-bucket histogram: bucket upper bounds are inclusive (value <=
/// bound), with an implicit +inf overflow bucket, plus a fixed-point sum.
/// The handle carries an immutable pointer to its bounds so Observe() is
/// lock-free like Counter::Increment.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double v) const;
  /// Records `count` observations of `v` at the cost of one.
  void Observe(double v, uint64_t count) const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, uint32_t cell,
            std::shared_ptr<const std::vector<double>> bounds)
      : registry_(registry), cell_(cell), bounds_(std::move(bounds)) {}
  MetricsRegistry* registry_ = nullptr;
  uint32_t cell_ = 0;
  std::shared_ptr<const std::vector<double>> bounds_;
};

/// Merged read-back of one histogram, for tests and exporters.
struct HistogramSnapshot {
  std::vector<double> bounds;        // upper bounds, ascending
  std::vector<uint64_t> buckets;     // bounds.size() + 1 (last = overflow)
  uint64_t count = 0;
  double sum = 0.0;

  uint64_t Count() const { return count; }
  double Sum() const { return sum; }
  /// 0.0 for an empty histogram.
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Estimated value at quantile `q` in [0, 100] (50 = median) by linear
  /// interpolation inside the covering bucket, Prometheus-style: the first
  /// bucket's lower edge is 0 when its upper bound is positive (the bound
  /// itself otherwise), and mass in the +inf overflow bucket clamps to the
  /// largest finite bound — a histogram cannot resolve beyond its buckets.
  /// Returns 0.0 for an empty histogram; q is clamped to [0, 100].
  double Percentile(double q) const;
};

/// One registered metric's merged value, captured atomically with respect
/// to registration (a single pass under the registry mutex). Raw
/// fixed-point fields ride along so exporters that need exact decimal
/// rendering (JSONL, Prometheus) can re-render without a float round-trip.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool deterministic = true;
  std::string help;
  uint64_t counter = 0;         // kCounter
  int64_t gauge_fp = 0;         // kGauge, fixed-point billionths
  HistogramSnapshot histogram;  // kHistogram
  int64_t hist_sum_fp = 0;      // kHistogram, exact fixed-point sum

  double gauge() const { return FromFixedPoint(gauge_fp); }
};

/// `count` buckets growing geometrically from `start` by `factor`.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);
std::vector<double> LinearBuckets(double start, double width, size_t count);

/// A structured trajectory record (e.g. one simulated round): a type tag
/// plus ordered (key, value) pairs. Exported in emission order — the
/// machine-readable time series behind the paper's Figures 8-10.
struct TrajectoryEvent {
  std::string type;
  std::vector<std::pair<std::string, double>> fields;
};

struct ExportOptions {
  /// Deterministic mode: only metrics registered deterministic, no
  /// shard/thread counts — the dump must be bit-identical across thread
  /// counts for a fixed seed (asserted by determinism_test).
  bool deterministic = false;
  bool include_events = true;
};

/// Process-wide metrics registry with lock-free sharded-per-thread
/// recording. Registration (cold) takes a mutex; recording (hot) is a
/// thread-local shard lookup plus one relaxed atomic add, so instrumenting
/// the PR-1 thread pool's fan-out paths never serializes them. Snapshots
/// and exports merge the shards by integer summation.
///
/// Instances are independent (tests use private ones); instrumented
/// production code records against Global(), which is never destroyed.
/// An instance registry must outlive every thread that recorded into it.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent per name: re-registering an existing name
  /// returns the original handle (kind/buckets must match; mismatch aborts)
  /// so call sites can keep `static` handles without coordination.
  Counter GetCounter(const std::string& name, MetricOptions options = {});
  Gauge GetGauge(const std::string& name, MetricOptions options = {});
  Histogram GetHistogram(const std::string& name, std::vector<double> bounds,
                         MetricOptions options = {});

  /// Runtime kill switch: when disabled, every record call returns after
  /// one relaxed load. This is the same code path a compiled-out build
  /// takes minus that single branch, which is what the metrics-overhead
  /// bench measures against.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one trajectory event (mutex-guarded; callers are the
  /// simulator's single driver thread, so this is never hot).
  void RecordEvent(std::string type,
                   std::vector<std::pair<std::string, double>> fields);

  /// Merged counter/gauge/histogram read-back; zero/empty for unknown
  /// names. Intended for tests and exporters, not hot paths.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  HistogramSnapshot HistogramValue(const std::string& name) const;
  std::vector<TrajectoryEvent> Events() const;

  /// Every registered metric's merged value, sorted by name, collected in
  /// one pass under the registry mutex and returned by value. This is the
  /// enumeration surface for exporters (statusz, JSONL, Prometheus, the
  /// /seriesz history ring): render from the returned vector, never while
  /// holding the registry lock.
  std::vector<MetricSample> SnapshotAll() const ICROWD_EXCLUDES(mutex_);

  /// One JSON object per line: metrics sorted by name (keys sorted within
  /// each object), then events in emission order. Doubles are printed with %.9g — enough to round-trip the
  /// fixed-point cells exactly.
  void ExportJsonl(std::ostream& out, const ExportOptions& options) const;
  std::string ExportJsonlString(const ExportOptions& options) const;

  /// Zeroes every cell and gauge and drops events; registered
  /// metrics and outstanding handles stay valid. Call only while no other
  /// thread is recording.
  void ResetForTesting();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend struct internal::TlsShardCache;

  /// Shard cell budget. A counter takes one cell; a histogram takes
  /// |bounds| + 2 (buckets, overflow, fixed-point sum). 4096 cells = 32 KiB
  /// per recording thread.
  static constexpr size_t kShardCells = 4096;
  /// Gauge slots are a fixed array so Gauge::Set/Add stay lock-free: a
  /// growable container would race its own reallocation against concurrent
  /// stores. Registering more than this aborts.
  static constexpr size_t kMaxGauges = 1024;

  struct Shard;
  struct MetricInfo {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    MetricOptions options;
    uint32_t cell = 0;       // first cell (counter/histogram)
    uint32_t num_cells = 1;  // counter: 1; histogram: bounds.size() + 2
    uint32_t gauge_slot = 0;
    std::shared_ptr<const std::vector<double>> bounds;
  };

  Shard* LocalShard();
  Shard* LocalShardSlow() ICROWD_EXCLUDES(mutex_);
  void ReleaseShard(Shard* shard) ICROWD_EXCLUDES(mutex_);
  int64_t SumCell(uint32_t cell) const ICROWD_REQUIRES(mutex_);
  const MetricInfo* FindLocked(const std::string& name) const
      ICROWD_REQUIRES(mutex_);

  const uint64_t id_;  // process-unique, guards stale thread-local caches
  std::atomic<bool> enabled_{true};
  /// Registration/snapshot mutex (tools/lock_order.txt).
  mutable Mutex mutex_;
  std::vector<MetricInfo> metrics_ ICROWD_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Shard>> shards_ ICROWD_GUARDED_BY(mutex_);
  std::vector<Shard*> free_shards_ ICROWD_GUARDED_BY(mutex_);
  uint32_t next_cell_ ICROWD_GUARDED_BY(mutex_) = 0;
  /// Fixed-point gauge slots; the array is allocated once in the
  /// constructor and every slot is an atomic, so stores are lock-free.
  const std::unique_ptr<std::atomic<int64_t>[]> gauges_;
  size_t num_gauges_ ICROWD_GUARDED_BY(mutex_) = 0;
  std::vector<TrajectoryEvent> events_ ICROWD_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace icrowd

#endif  // ICROWD_OBS_METRICS_H_
