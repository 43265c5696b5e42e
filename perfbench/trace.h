#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans wrap the benchmark's
/// own calls into each layer's public functions; nothing inside the library
/// is instrumented. A disabled tracer records nothing and returns id 0.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Id of the enclosing span, 0 for a root.
    uint32_t parent = 0;
    /// Campaign index the span belongs to, -1 when it spans several.
    int64_t campaign = -1;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id; `name` must be a string literal.
  uint32_t Begin(const char* name, uint32_t parent = 0, int64_t campaign = -1);
  void End(uint32_t id);

  /// Total and self seconds per span name, and the number of spans. Self
  /// time is a span's duration minus the part its children cover.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Durations in seconds of every closed span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// One JSON object per span: id, name, start/end (ns), parent, campaign.
  icrowd::Status WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent = 0,
             int64_t campaign = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, campaign)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
