#ifndef ICROWD_OBS_FLIGHT_RECORDER_H_
#define ICROWD_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace icrowd {
namespace obs {

/// Always-on black box for the ingest pipeline (DESIGN.md §14): every
/// thread records its recent spans, log records, and ingest events into a
/// private fixed-capacity ring buffer, so when something goes wrong — a
/// fatal signal, a failed test, an explicit dump request — the last few
/// thousand things each thread did are still in memory, in order, without
/// the process ever having paid for persistent tracing.
///
/// Cost model: Record() is one relaxed enabled-load, a thread-local ring
/// lookup, and a handful of relaxed atomic stores into the ring slot — no
/// locks, no allocation, no branches on the dump side. The per-slot
/// atomics exist so a dump racing a recording thread reads torn *records*
/// at worst (each field individually valid), never torn bytes, and stays
/// clean under TSan. Quiesced dumps (tests, post-trip) are exact.

enum class FlightEventKind : uint8_t {
  kSpanBegin = 0,  // ICROWD_TRACE_SCOPE opened (tag = span name)
  kSpanEnd = 1,    // ICROWD_TRACE_SCOPE closed (tag = span name)
  kLog = 2,        // log record passed the threshold (tag = level,
                   //  detail = truncated message, a0 = numeric level)
  kIngest = 3,     // ingest event applied (tag = event kind,
                   //  a0 = worker, a1 = task)
  kMark = 4,       // free-form milestone (batch boundaries, trips, ...)
};

const char* FlightEventKindName(FlightEventKind kind);

/// One materialized ring entry, as returned by Snapshot()/rendered by
/// Dump(). Times are nanoseconds since the recorder's epoch (monotonic —
/// never wall clock; see the clock-source lint rule).
struct FlightEventView {
  int64_t t_ns = 0;
  uint64_t seq = 0;  // per-thread record index (dump tie-breaker)
  uint32_t thread = 0;
  FlightEventKind kind = FlightEventKind::kMark;
  const char* tag = "";
  int64_t a0 = 0;
  int64_t a1 = 0;
  std::string detail;  // kLog only: truncated message text
};

namespace internal {
struct TlsRingCache;  // thread-exit hook returning rings for reuse
}  // namespace internal

class FlightRecorder {
 public:
  /// Ring slots per recording thread. 1024 slots ≈ 110 KiB per thread;
  /// rings are pooled and reused across thread lifetimes like the metric
  /// shards, so the footprint is bounded by peak concurrency.
  static constexpr size_t kDefaultCapacity = 1024;
  /// Inline detail budget per slot (kLog message prefix).
  static constexpr size_t kDetailBytes = 48;

  /// Never destroyed (instrumented code records from detached threads
  /// during teardown). Enabled by default — "always on" is the point.
  static FlightRecorder& Global();

  explicit FlightRecorder(size_t capacity_per_thread = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Kill switch, mirroring MetricsRegistry::SetEnabled: when disabled,
  /// Record() returns after one relaxed load — the comparison point the
  /// flight-recorder overhead bench measures.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one record to the calling thread's ring (wrapping over the
  /// oldest entry once full). `tag` must be a string with static storage
  /// duration — the ring stores the pointer, not the bytes.
  void Record(FlightEventKind kind, const char* tag, int64_t a0 = 0,
              int64_t a1 = 0);
  /// Record() plus an inline copy of the first kDetailBytes of `detail`.
  void RecordDetail(FlightEventKind kind, const char* tag,
                    std::string_view detail, int64_t a0 = 0);

  struct DumpOptions {
    bool json = false;       // JSONL (one object per line) vs aligned text
    size_t max_events = 0;   // keep only the most recent N; 0 = everything
  };

  /// Merges every ring and renders the surviving records in global
  /// (t_ns, thread, seq) order. Safe to call while other threads record
  /// (best-effort snapshot); exact once they are quiesced.
  std::string Dump(const DumpOptions& options) const
      ICROWD_EXCLUDES(mutex_);
  std::string Dump() const ICROWD_EXCLUDES(mutex_) {
    return Dump(DumpOptions());
  }
  std::vector<FlightEventView> Snapshot(size_t max_events = 0) const
      ICROWD_EXCLUDES(mutex_);

  /// Total records ever written (sum over rings; wraps never subtract).
  uint64_t events_recorded() const ICROWD_EXCLUDES(mutex_);
  size_t capacity_per_thread() const { return capacity_; }

  /// Test hook: replaces the monotonic time source for deterministic
  /// dumps. Pass nullptr to restore steady-clock time.
  using TimeSourceFn = int64_t (*)();
  void SetTimeSourceForTesting(TimeSourceFn now_ns) {
    time_source_.store(now_ns, std::memory_order_relaxed);
  }

  /// Empties every ring (registered threads keep theirs). Call only while
  /// no other thread is recording.
  void ResetForTesting() ICROWD_EXCLUDES(mutex_);

 private:
  friend struct internal::TlsRingCache;

  struct Slot;
  struct Ring;

  Ring* LocalRing();
  Ring* LocalRingSlow() ICROWD_EXCLUDES(mutex_);
  void ReleaseRing(Ring* ring) ICROWD_EXCLUDES(mutex_);
  int64_t NowNanos() const;

  const uint64_t id_;  // process-unique, guards stale thread-local caches
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<TimeSourceFn> time_source_{nullptr};
  std::atomic<int64_t> epoch_ns_{0};
  /// Ring registration/merge mutex (tools/lock_order.txt): recording never
  /// takes it except on a thread's first record (ring acquisition).
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ ICROWD_GUARDED_BY(mutex_);
  std::vector<Ring*> free_rings_ ICROWD_GUARDED_BY(mutex_);
};

/// Renders one view the way Dump() does, for callers filtering snapshots.
std::string FormatFlightEvent(const FlightEventView& view, bool json);

/// RAII span: records kSpanBegin on construction and kSpanEnd on
/// destruction into FlightRecorder::Global(). The flight recorder is the
/// only span sink; per-layer timings live in the registry's histograms.
class TraceScope {
 public:
  explicit TraceScope(const char* name) : name_(name) {
    FlightRecorder::Global().Record(FlightEventKind::kSpanBegin, name_);
  }
  ~TraceScope() {
    FlightRecorder::Global().Record(FlightEventKind::kSpanEnd, name_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
};

}  // namespace obs
}  // namespace icrowd

#define ICROWD_OBS_CONCAT_INNER(a, b) a##b
#define ICROWD_OBS_CONCAT(a, b) ICROWD_OBS_CONCAT_INNER(a, b)

/// Marks the enclosing scope as one span named `name` (a string literal:
/// the ring stores the pointer) in the calling thread's flight-recorder
/// ring. Scopes nest: a scope opened while another is live on the same
/// thread records its begin/end between the outer pair, so /flightz shows
/// the per-phase tree of one pipeline round.
#define ICROWD_TRACE_SCOPE(name) \
  ::icrowd::obs::TraceScope ICROWD_OBS_CONCAT(icrowd_trace_scope_, \
                                              __COUNTER__)(name)

#endif  // ICROWD_OBS_FLIGHT_RECORDER_H_
