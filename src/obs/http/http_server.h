#ifndef ICROWD_OBS_HTTP_HTTP_SERVER_H_
#define ICROWD_OBS_HTTP_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_annotations.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/http/series.h"
#include "obs/metrics.h"

namespace icrowd {
namespace obs {

/// Minimal dependency-free HTTP/1.1 observability server (DESIGN.md §15):
/// one dedicated thread, one connection at a time, Connection: close on
/// every response. It exists to be scraped by curl and Prometheus, not to
/// serve traffic — requests are bounded at a few KiB, anything but GET is
/// a 405, and the bind address defaults to loopback so a campaign never
/// exposes telemetry off-host unless explicitly asked to.
///
/// Endpoints:
///   GET /statusz[?format=json]  PR 8's byte-stable status snapshot
///   GET /metricsz               Prometheus 0.0.4 text exposition
///   GET /flightz[?format=json]  merged flight-recorder dump
///   GET /healthz                "ok" or 503 listing stalled heartbeats
///   GET /seriesz                windowed rates from the MetricsHistory
///   GET /buildz[?format=json]   git sha / build type / API version
///
/// /healthz is the process's one stall verdict (DESIGN.md §14): a
/// heartbeat busy and silent for more than kHealthzStallSeconds is a
/// stall; an idle heartbeat is healthy at any age. Requests larger than
/// kMaxRequestBytes are answered 413.
class ObsServer {
 public:
  static constexpr double kHealthzStallSeconds = 5.0;
  static constexpr size_t kMaxRequestBytes = 4096;

  struct Options {
    /// Loopback by default; "0.0.0.0" opts into off-host scraping.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (read it back via port()).
    int port = 0;
    /// Instance registries for tests; null = the process-wide globals.
    /// `metrics` is non-const so the server can register its own request
    /// counters on the registry it serves.
    MetricsRegistry* metrics = nullptr;
    const HeartbeatRegistry* heartbeats = nullptr;
    const FlightRecorder* flight = nullptr;
    /// Optional /seriesz source; null serves an empty document.
    const MetricsHistory* history = nullptr;
    /// Label stamped on every /metricsz sample (campaign="<label>").
    /// Empty = unlabeled. Per-server state, set at construction: co-hosted
    /// servers never share a label, and there is no process-global setter
    /// for concurrent campaigns to race on.
    std::string campaign_label;
    /// Extra exposition text appended after the registry render on
    /// /metricsz — the hook CampaignManager uses to publish one labeled
    /// per-campaign sample block per hosted campaign. Called once per
    /// scrape from the serve thread; must be thread-safe and must emit
    /// metric names disjoint from the registry's. Null = nothing extra.
    std::function<std::string()> extra_metricsz;
    /// Extra text appended after the /statusz document (text mode only;
    /// the JSON document stays untouched and byte-stable). Same threading
    /// contract as extra_metricsz.
    std::function<std::string()> extra_statusz;
  };

  ObsServer();
  explicit ObsServer(Options options);
  /// Stops the server if still running.
  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Creates, binds, and listens on the socket synchronously (so a port
  /// conflict fails here, not asynchronously later), then launches the
  /// serve thread. Returns false with the reason on stderr if the socket
  /// setup fails or the server is already running.
  bool Start() ICROWD_EXCLUDES(mu_);

  /// Signals the serve thread, waits for it to exit its accept loop
  /// (CondVar handshake), joins it, and closes the listen socket.
  /// Idempotent; safe to call on a server that never started.
  void Stop() ICROWD_EXCLUDES(mu_);

  /// The bound port (resolves option port 0 to the kernel's pick once
  /// Start() succeeds); -1 before Start/after Stop.
  int port() const { return port_.load(std::memory_order_relaxed); }
  bool running() const ICROWD_EXCLUDES(mu_);
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Routes one raw HTTP request exactly as the serve loop would and
  /// returns the full response (status line, headers, body) without a
  /// socket — the unit-test surface for 400/404/405/413 and the endpoint
  /// renderers.
  std::string HandleRequestForTesting(const std::string& raw) {
    return HandleRequest(raw);
  }

 private:
  void ServeLoop() ICROWD_EXCLUDES(mu_);
  void ServeOne(int client_fd);
  std::string HandleRequest(const std::string& raw);
  std::string RouteGet(const std::string& target);

  const Options options_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> port_{-1};
  std::atomic<uint64_t> requests_{0};
  /// Server lifecycle mutex (tools/lock_order.txt): guards the
  /// stop flag, thread handle, and exit handshake; the serve loop takes
  /// it only to poll `stopping_` between accepts.
  mutable Mutex mu_;
  CondVar exited_cv_;
  bool stopping_ ICROWD_GUARDED_BY(mu_) = false;
  bool loop_exited_ ICROWD_GUARDED_BY(mu_) = false;
  std::unique_ptr<std::thread> thread_ ICROWD_GUARDED_BY(mu_);
};

/// The observability stack a campaign host (CampaignManager) and
/// `icrowd_cli --serve-obs` embed: an ObsServer
/// whose /seriesz reads a MetricsHistory fed by a 1 Hz SeriesSampler over
/// the global registry.
class EmbeddedObs {
 public:
  /// Binds the server described by `options` (its `history` is pointed at
  /// this stack's ring) and then starts sampling. Returns null, with the
  /// reason on stderr, when the bind fails.
  static std::unique_ptr<EmbeddedObs> Start(ObsServer::Options options);
  EmbeddedObs(const EmbeddedObs&) = delete;
  EmbeddedObs& operator=(const EmbeddedObs&) = delete;

  int port() const { return server_->port(); }

 private:
  EmbeddedObs() = default;

  /// Destruction runs bottom-up: the server goes down first (it reads the
  /// history), then the sampler (it writes the history), then the ring.
  MetricsHistory history_;
  std::unique_ptr<SeriesSampler> sampler_;
  std::unique_ptr<ObsServer> server_;
};

}  // namespace obs
}  // namespace icrowd

#endif  // ICROWD_OBS_HTTP_HTTP_SERVER_H_
