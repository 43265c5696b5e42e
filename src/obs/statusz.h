#ifndef ICROWD_OBS_STATUSZ_H_
#define ICROWD_OBS_STATUSZ_H_

#include <string>

#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace icrowd {
namespace obs {

struct StatuszOptions {
  bool json = false;
  /// Uptime to report; negative means CurrentBuildInfo()'s. Tests
  /// pin it (with a fake registry clock) so the rendering is byte-stable.
  double uptime_seconds = -1.0;
  /// Build identity for the [build] block; null means CurrentBuildInfo().
  /// Tests pin it so the rendering is byte-stable.
  const BuildInfo* build = nullptr;
};

/// Renders the live-state snapshot (DESIGN.md §14 has the field glossary):
/// uptime and flight-recorder state, every registered heartbeat,
/// and a fixed set of pipeline counters, gauges, and per-stage latency
/// histograms — enough to localize a stalled or slow ingest stage from one
/// read. The field set and ordering are fixed (unknown metrics render as
/// zero), which is what makes the output byte-stable and diffable; the
/// full open-ended metric dump remains ExportJsonl's job.
std::string RenderStatusz(const MetricsRegistry& metrics,
                          const HeartbeatRegistry& heartbeats,
                          const FlightRecorder& flight,
                          const StatuszOptions& options = {});

/// Global-instances convenience overload (the CLI/dump entry point).
std::string RenderStatusz(const StatuszOptions& options = {});

/// Writes a flight-recorder dump plus a statusz snapshot to stderr and —
/// when $ICROWD_OBS_DUMP_DIR is set — to
///   <dir>/introspection-<pid>-<reason>-flight.jsonl
///   <dir>/introspection-<pid>-<reason>-statusz.txt
/// so CI can upload them as artifacts. `reason` must be a short
/// filename-safe token ("test-failure", "terminate", "sigabrt").
void DumpIntrospection(const char* reason);

/// Installs std::terminate and fatal-signal hooks that call
/// DumpIntrospection before the process dies (then restore the default
/// action and re-raise, so exit codes and death tests are unaffected).
/// SIGABRT is always hooked; SIGSEGV/SIGBUS only when no sanitizer is
/// active (sanitizers install their own, more informative, handlers).
/// Idempotent.
void InstallIntrospectionCrashHandler();

}  // namespace obs
}  // namespace icrowd

#endif  // ICROWD_OBS_STATUSZ_H_
