#include "obs/statusz.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

namespace icrowd {
namespace obs {

namespace {

using internal::EscapeJson;
using internal::FormatSeconds;

/// The fixed statusz glossary (DESIGN.md §14). Rendering a fixed list —
/// rather than whatever happens to be registered — is what keeps the
/// output byte-stable across builds and runs.
constexpr const char* kCounters[] = {
    "icrowd.ingest.batches",
    "icrowd.ingest.events_applied",
    "icrowd.ingest.events_abandoned",
    "icrowd.ingest.backpressure_waits",
    "icrowd.journal.appends",
    "icrowd.journal.append_bytes",
    "icrowd.journal.flushes",
    "icrowd.journal.fsyncs",
    "icrowd.pool.tasks_submitted",
    "icrowd.obs.log_records",
};

constexpr const char* kGauges[] = {
    "icrowd.ingest.queue_depth",
    "icrowd.pool.queue_depth",
};

/// Per-stage latency attribution, in pipeline order: queue wait → batch
/// assembly → apply → journal flush, plus the pool's scheduling split and
/// the batch-size shape.
constexpr const char* kHistograms[] = {
    "icrowd.ingest.queue_wait_seconds",
    "icrowd.ingest.batch_assembly_seconds",
    "icrowd.ingest.apply_seconds",
    "icrowd.journal.flush_seconds",
    "icrowd.pool.task_wait_seconds",
    "icrowd.pool.task_run_seconds",
    "icrowd.ingest.batch_size",
};

/// One registry pass for the whole rendering: the glossary used to issue a
/// locked CounterValue/GaugeValue/HistogramValue call per line (20 lock
/// round-trips per statusz); SnapshotAll takes the registry mutex once and
/// every lookup below is a binary search over the sorted copy.
struct MetricsView {
  std::vector<MetricSample> samples;

  const MetricSample* Find(const char* name, MetricKind kind) const {
    const std::string key(name);
    auto it = std::lower_bound(
        samples.begin(), samples.end(), key,
        [](const MetricSample& s, const std::string& k) { return s.name < k; });
    if (it == samples.end() || it->name != key || it->kind != kind) {
      return nullptr;
    }
    return &*it;
  }
  uint64_t Counter(const char* name) const {
    const MetricSample* s = Find(name, MetricKind::kCounter);
    return s == nullptr ? 0 : s->counter;
  }
  double Gauge(const char* name) const {
    const MetricSample* s = Find(name, MetricKind::kGauge);
    return s == nullptr ? 0.0 : s->gauge();
  }
  HistogramSnapshot Histogram(const char* name) const {
    const MetricSample* s = Find(name, MetricKind::kHistogram);
    return s == nullptr ? HistogramSnapshot() : s->histogram;
  }
};

std::string RenderText(const MetricsView& metrics,
                       const HeartbeatRegistry& heartbeats,
                       const FlightRecorder& flight, double uptime,
                       const BuildInfo& build) {
  std::ostringstream out;
  out << "=== icrowd statusz ===\n";
  out << "uptime_seconds " << FormatSeconds(uptime) << "\n";
  out << "flight_recorder.enabled " << (flight.enabled() ? 1 : 0) << "\n";
  out << "flight_recorder.events_recorded " << flight.events_recorded()
      << "\n";
  out << "flight_recorder.capacity_per_thread "
      << flight.capacity_per_thread() << "\n";
  out << "\n[build]\n" << RenderBuildInfoText(build);
  out << "\n[heartbeats]\n";
  for (const HeartbeatSnapshot& hb : heartbeats.Snapshots()) {
    out << hb.name << " state=" << (hb.busy ? "busy" : "idle")
        << " age_seconds=" << FormatSeconds(hb.age_seconds)
        << " beats=" << hb.beats << "\n";
  }
  out << "\n[counters]\n";
  for (const char* name : kCounters) {
    out << name << " " << metrics.Counter(name) << "\n";
  }
  out << "\n[gauges]\n";
  for (const char* name : kGauges) {
    out << name << " " << FormatSeconds(metrics.Gauge(name)) << "\n";
  }
  out << "\n[latency]\n";
  for (const char* name : kHistograms) {
    HistogramSnapshot snapshot = metrics.Histogram(name);
    out << name << " count=" << snapshot.count
        << " mean=" << FormatSeconds(snapshot.Mean())
        << " p50=" << FormatSeconds(snapshot.Percentile(50))
        << " p99=" << FormatSeconds(snapshot.Percentile(99)) << "\n";
  }
  return out.str();
}

std::string RenderJson(const MetricsView& metrics,
                       const HeartbeatRegistry& heartbeats,
                       const FlightRecorder& flight, double uptime,
                       const BuildInfo& build) {
  std::ostringstream out;
  out << "{\"uptime_seconds\":" << FormatSeconds(uptime);
  out << ",\"flight_recorder\":{\"enabled\":"
      << (flight.enabled() ? "true" : "false")
      << ",\"events_recorded\":" << flight.events_recorded()
      << ",\"capacity_per_thread\":" << flight.capacity_per_thread() << "}";
  out << ",\"build\":" << RenderBuildInfoJson(build);
  out << ",\"heartbeats\":[";
  bool first = true;
  for (const HeartbeatSnapshot& hb : heartbeats.Snapshots()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << EscapeJson(hb.name) << "\",\"state\":\""
        << (hb.busy ? "busy" : "idle")
        << "\",\"age_seconds\":" << FormatSeconds(hb.age_seconds)
        << ",\"beats\":" << hb.beats << "}";
  }
  out << "],\"counters\":{";
  first = true;
  for (const char* name : kCounters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << metrics.Counter(name);
  }
  out << "},\"gauges\":{";
  first = true;
  for (const char* name : kGauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << FormatSeconds(metrics.Gauge(name));
  }
  out << "},\"latency\":{";
  first = true;
  for (const char* name : kHistograms) {
    if (!first) out << ",";
    first = false;
    HistogramSnapshot snapshot = metrics.Histogram(name);
    out << "\"" << name << "\":{\"count\":" << snapshot.count
        << ",\"mean\":" << FormatSeconds(snapshot.Mean())
        << ",\"p50\":" << FormatSeconds(snapshot.Percentile(50))
        << ",\"p99\":" << FormatSeconds(snapshot.Percentile(99)) << "}";
  }
  out << "}}\n";
  return out.str();
}

}  // namespace

std::string RenderStatusz(const MetricsRegistry& metrics,
                          const HeartbeatRegistry& heartbeats,
                          const FlightRecorder& flight,
                          const StatuszOptions& options) {
  const double uptime = options.uptime_seconds >= 0.0
                            ? options.uptime_seconds
                            : CurrentBuildInfo().uptime_seconds;
  const BuildInfo build =
      options.build != nullptr ? *options.build : CurrentBuildInfo();
  MetricsView view{metrics.SnapshotAll()};
  return options.json
             ? RenderJson(view, heartbeats, flight, uptime, build)
             : RenderText(view, heartbeats, flight, uptime, build);
}

std::string RenderStatusz(const StatuszOptions& options) {
  return RenderStatusz(MetricsRegistry::Global(), HeartbeatRegistry::Global(),
                       FlightRecorder::Global(), options);
}

void DumpIntrospection(const char* reason) {
  FlightRecorder::DumpOptions flight_options;
  flight_options.json = true;
  // Bound the dump: under a wedged pipeline the rings can hold tens of
  // thousands of records across threads; the most recent few hundred are
  // the ones that explain the stall.
  flight_options.max_events = 256;
  const std::string flight = FlightRecorder::Global().Dump(flight_options);
  const std::string statusz = RenderStatusz();

  std::fprintf(stderr, "\n--- introspection dump (%s) ---\n%s", reason,
               statusz.c_str());
  std::fprintf(stderr, "--- flight recorder (last %zu events) ---\n%s",
               flight_options.max_events, flight.c_str());
  std::fflush(stderr);

  const char* dir = std::getenv("ICROWD_OBS_DUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const long pid = static_cast<long>(::getpid());
  char path[4096];
  std::snprintf(path, sizeof(path), "%s/introspection-%ld-%s-flight.jsonl",
                dir, pid, reason);
  std::ofstream(path) << flight;
  std::snprintf(path, sizeof(path), "%s/introspection-%ld-%s-statusz.txt",
                dir, pid, reason);
  std::ofstream(path) << statusz;
}

namespace {

std::atomic<bool> g_crash_handler_installed{false};
std::terminate_handler g_prior_terminate = nullptr;

[[noreturn]] void IntrospectionTerminate() {
  DumpIntrospection("terminate");
  // The abort below raises SIGABRT; drop our handler first so the dump is
  // not emitted twice.
  std::signal(SIGABRT, SIG_DFL);
  if (g_prior_terminate != nullptr) g_prior_terminate();
  std::abort();
}

/// Fatal-signal hook. Calling allocating code from a signal handler is
/// not strictly async-signal-safe; for a process that is already dying the
/// trade is worth it — the dump either works (usual case: SIGABRT from an
/// assert) or the process dies anyway, which it was about to do.
void IntrospectionSignalHandler(int signum) {
  DumpIntrospection(signum == SIGABRT ? "sigabrt" : "fatal-signal");
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

void InstallIntrospectionCrashHandler() {
  if (g_crash_handler_installed.exchange(true)) return;
  g_prior_terminate = std::set_terminate(IntrospectionTerminate);
  std::signal(SIGABRT, IntrospectionSignalHandler);
  if (!UnderSanitizer()) {
    std::signal(SIGSEGV, IntrospectionSignalHandler);
    std::signal(SIGBUS, IntrospectionSignalHandler);
  }
}

}  // namespace obs
}  // namespace icrowd
