// Observability HTTP server suite (DESIGN.md §15): real loopback scrapes
// of every endpoint against private registries, /healthz stall detection
// via an injected ManualClock (and its strict 5 s bound), protocol errors
// (400/404/405/413) and a seeded hostile-request fuzz through the
// socketless request surface, lifecycle (ephemeral-port readback,
// double-start, Stop idempotence), concurrent scrapes during recording
// (the TSan target), and the determinism contract: a deterministic JSONL
// export is bit-identical whether or not a server is scraping the
// registry.

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/random.h"
#include "core/clock.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/http/http_client.h"
#include "obs/http/http_server.h"
#include "obs/http/prometheus.h"
#include "obs/http/series.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

using obs::HttpGet;
using obs::HttpResponse;
using obs::MetricsHistory;
using obs::MetricsRegistry;
using obs::ObsServer;
using obs::RenderPrometheus;

/// One self-contained observability world: private registries, a stalled
/// or healthy heartbeat set, and a server bound to an ephemeral loopback
/// port.
struct ServerWorld {
  MetricsRegistry metrics;
  obs::HeartbeatRegistry heartbeats;
  obs::FlightRecorder flight;
  MetricsHistory history;
  ManualClock clock{100.0};
  ObsServer server;

  static ObsServer::Options MakeOptions(ServerWorld* world) {
    ObsServer::Options options;
    options.metrics = &world->metrics;
    options.heartbeats = &world->heartbeats;
    options.flight = &world->flight;
    options.history = &world->history;
    return options;
  }

  ServerWorld() : server(MakeOptions(this)) {
    heartbeats.SetClock(&clock);
    obs::MetricOptions nd{false, "probe"};
    metrics.GetCounter("icrowd.ingest.batches", nd).Increment(3);
    metrics.GetGauge("icrowd.ingest.queue_depth", nd).Set(2.5);
    flight.SetEnabled(true);
    flight.Record(obs::FlightEventKind::kMark, "campaign.start");
  }

  ~ServerWorld() { heartbeats.SetClock(nullptr); }

  HttpResponse Get(const std::string& path) {
    return HttpGet("127.0.0.1", server.port(), path);
  }
};

TEST(ObsServerTest, ServesEveryEndpointOverLoopback) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  ASSERT_GT(world.server.port(), 0);

  HttpResponse statusz = world.Get("/statusz");
  EXPECT_EQ(statusz.status, 200) << statusz.error;
  EXPECT_NE(statusz.body.find("=== icrowd statusz ==="), std::string::npos);
  EXPECT_NE(statusz.body.find("[build]"), std::string::npos);
  EXPECT_NE(statusz.body.find("icrowd.ingest.batches"), std::string::npos);

  HttpResponse statusz_json = world.Get("/statusz?format=json");
  EXPECT_EQ(statusz_json.status, 200);
  EXPECT_EQ(statusz_json.body.front(), '{');
  EXPECT_NE(statusz_json.body.find("\"build\":"), std::string::npos);

  HttpResponse metricsz = world.Get("/metricsz");
  EXPECT_EQ(metricsz.status, 200);
  EXPECT_NE(metricsz.body.find("# TYPE icrowd_ingest_batches counter\n"
                               "icrowd_ingest_batches 3\n"),
            std::string::npos);
  EXPECT_NE(metricsz.body.find("icrowd_ingest_queue_depth 2.5\n"),
            std::string::npos);

  HttpResponse flightz = world.Get("/flightz");
  EXPECT_EQ(flightz.status, 200);
  EXPECT_NE(flightz.body.find("campaign.start"), std::string::npos);

  HttpResponse healthz = world.Get("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  world.history.Sample(world.metrics, 1.0);
  world.history.Sample(world.metrics, 2.0);
  HttpResponse seriesz = world.Get("/seriesz");
  EXPECT_EQ(seriesz.status, 200);
  EXPECT_NE(seriesz.body.find("\"snapshots\":2"), std::string::npos);
  EXPECT_NE(seriesz.body.find("\"rates\":{"), std::string::npos);

  HttpResponse buildz = world.Get("/buildz");
  EXPECT_EQ(buildz.status, 200);
  EXPECT_NE(buildz.body.find("git_sha "), std::string::npos);
  EXPECT_NE(buildz.body.find("api_version "), std::string::npos);

  EXPECT_EQ(world.Get("/nope").status, 404);
  EXPECT_GE(world.server.requests_served(), 8u);
  world.server.Stop();
}

TEST(ObsServerTest, HealthzReports503OnStalledHeartbeat) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());

  // Busy heartbeat whose stamp stops advancing past the stall bound:
  // exactly the condition /healthz calls a stall.
  obs::Heartbeat* consumer = world.heartbeats.Register("ingest.consumer");
  consumer->MarkBusy();
  world.clock.Advance(30.0);  // kHealthzStallSeconds is 5

  HttpResponse healthz = world.Get("/healthz");
  EXPECT_EQ(healthz.status, 503);
  EXPECT_NE(healthz.body.find("stalled: ingest.consumer"),
            std::string::npos);
  EXPECT_NE(healthz.body.find("age_seconds=30.000000"), std::string::npos);

  // Idle-but-old is healthy: parked on a condition variable is not a
  // stall (the heartbeat contract, DESIGN.md §14).
  consumer->MarkIdle();
  world.clock.Advance(100.0);
  EXPECT_EQ(world.Get("/healthz").status, 200);

  world.heartbeats.Unregister(consumer);
  world.server.Stop();
}

/// The status code of a raw "HTTP/1.1 <code> ..." response.
int StatusOf(const std::string& response) {
  return std::stoi(response.substr(std::string("HTTP/1.1 ").size(), 3));
}

int HealthzStatus(ObsServer& server) {
  return StatusOf(
      server.HandleRequestForTesting("GET /healthz HTTP/1.1\r\n\r\n"));
}

TEST(ObsServerTest, HealthzStallBoundIsStrictlyAboveFiveSeconds) {
  ServerWorld world;  // clock at 100.0
  ASSERT_EQ(ObsServer::kHealthzStallSeconds, 5.0);
  obs::Heartbeat* consumer = world.heartbeats.Register("ingest.consumer");
  consumer->MarkBusy();

  world.clock.Set(104.0);
  EXPECT_EQ(HealthzStatus(world.server), 200);
  world.clock.Set(105.0);  // age exactly 5.0: not yet a stall
  EXPECT_EQ(HealthzStatus(world.server), 200);
  world.clock.Set(105.5);
  EXPECT_EQ(HealthzStatus(world.server), 503);

  world.heartbeats.Unregister(consumer);
}

TEST(ObsServerTest, HealthzIgnoresIdleHeartbeatOfAnyAge) {
  ServerWorld world;
  obs::Heartbeat* parked = world.heartbeats.Register("pool.worker");
  parked->MarkIdle();
  world.clock.Advance(1e6);  // parked for ages: healthy by contract
  EXPECT_EQ(HealthzStatus(world.server), 200);
  world.heartbeats.Unregister(parked);
}

TEST(ObsServerTest, ProtocolErrorsWithoutASocket) {
  ServerWorld world;  // never started: HandleRequestForTesting is direct

  std::string ok = world.server.HandleRequestForTesting(
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 3"), std::string::npos);

  EXPECT_NE(world.server.HandleRequestForTesting("garbage")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting("GETnothing\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting(
                    "GET relative HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  std::string post = world.server.HandleRequestForTesting(
      "POST /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET"), std::string::npos);
  EXPECT_NE(world.server.HandleRequestForTesting("GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  std::string big = "GET /statusz HTTP/1.1\r\nX: ";
  big.append(8192, 'a');
  big += "\r\n\r\n";
  EXPECT_NE(world.server.HandleRequestForTesting(big).find("HTTP/1.1 413"),
            std::string::npos);
}

// ------------------------------------------------ request parser fuzz --
//
// Seeded hostile requests through the socketless surface: random bytes,
// split or missing CRLFs, sizes around the request bound, odd methods and
// targets. Every case must come back as a well-formed response whose
// status is 200 (a routed GET) or a 4xx, never a crash; CI runs this
// under ASan and UBSan.

constexpr int kHttpFuzzCases = 2000;

std::string RandomBytes(Rng* rng, size_t size) {
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng->UniformInt(0, 255));
  return out;
}

template <typename T, size_t N>
const T& Pick(const T (&options)[N], Rng* rng) {
  return options[rng->UniformInt(0, static_cast<int64_t>(N) - 1)];
}

std::string HostileRequest(Rng* rng) {
  static const std::string kMethods[] = {
      "GET",   "get", "HEAD", "POST", "PUT", "OPTIONS", "",
      "GET\t", std::string("G\0T", 3), std::string(300, 'G')};
  static const std::string kTargets[] = {
      "/", "*", "", "//", "/statusz?format=json&x=1", "/healthz?",
      "/../etc/passwd", "/%00", "/metricsz#frag", "/flightz?format=json",
      "/seriesz", "/buildz?format=json", "http://host/statusz",
      "/" + std::string(1000, 'a'), "/statusz?format=" + std::string(64, '?')};
  const std::string valid =
      "GET " + Pick(kTargets, rng) + " HTTP/1.1\r\nHost: x\r\n\r\n";
  const auto at = [rng](const std::string& s) {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(s.size())));
  };
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return RandomBytes(rng, static_cast<size_t>(rng->UniformInt(0, 512)));
    case 1: {  // drop, split or misplace the line terminators
      std::string out = valid;
      switch (rng->UniformInt(0, 2)) {
        case 0: {
          const size_t cr = out.find('\r');
          out.erase(cr, static_cast<size_t>(rng->UniformInt(1, 2)));
          break;
        }
        case 1:
          out.insert(at(out), "\r\n");
          break;
        default:
          for (char& c : out) {
            if (c == '\r' || c == '\n') c = ' ';
          }
          break;
      }
      return out;
    }
    case 2: {  // sizes straddling the request bound
      std::string out = "GET /statusz HTTP/1.1\r\nX: ";
      const size_t size = ObsServer::kMaxRequestBytes +
                          static_cast<size_t>(rng->UniformInt(0, 4)) - 2;
      out.append(size - out.size() - 4, 'a');
      return out + "\r\n\r\n";
    }
    case 3:
      return Pick(kMethods, rng) + " " + Pick(kTargets, rng) +
             (rng->Bernoulli(0.5) ? " HTTP/1.1\r\n\r\n" : "\r\n");
    default: {  // a valid request with a few random bytes overwritten
      std::string out = valid;
      for (int64_t i = rng->UniformInt(1, 4); i > 0; --i) {
        out[at(out) % out.size()] = static_cast<char>(rng->UniformInt(0, 255));
      }
      return out;
    }
  }
}

TEST(ObsServerTest, RequestParserSurvivesHostileInput) {
  ServerWorld world;  // never started: HandleRequestForTesting is direct
  Rng rng(20261020);
  for (int i = 0; i < kHttpFuzzCases; ++i) {
    const std::string request = HostileRequest(&rng);
    const std::string response = world.server.HandleRequestForTesting(request);
    SCOPED_TRACE("case " + std::to_string(i));
    ASSERT_EQ(response.rfind("HTTP/1.1 ", 0), 0u);
    const int status = StatusOf(response);
    const size_t body = response.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos);
    const size_t length = response.find("Content-Length: ");
    ASSERT_LT(length, body);
    EXPECT_EQ(std::stoul(response.substr(length + 16)),
              response.size() - body - 4);
    if (request.size() > ObsServer::kMaxRequestBytes) {
      EXPECT_EQ(status, 413);
    } else if (request.find("\r\n") == std::string::npos) {
      EXPECT_EQ(status, 400);
    } else if (status == 200) {
      EXPECT_EQ(request.rfind("GET /", 0), 0u);
    } else {
      EXPECT_TRUE(status == 400 || status == 404 || status == 405) << status;
    }
  }
}

TEST(ObsServerTest, LifecycleIsIdempotentAndReadsBackPort) {
  ServerWorld world;
  EXPECT_EQ(world.server.port(), -1);
  EXPECT_FALSE(world.server.running());
  world.server.Stop();  // never started: no-op

  ASSERT_TRUE(world.server.Start());
  EXPECT_TRUE(world.server.running());
  int port = world.server.port();
  EXPECT_GT(port, 0);
  EXPECT_FALSE(world.server.Start()) << "double start must refuse";
  EXPECT_EQ(world.server.port(), port);

  world.server.Stop();
  EXPECT_FALSE(world.server.running());
  EXPECT_EQ(world.server.port(), -1);
  world.server.Stop();  // idempotent
}

TEST(ObsServerTest, FixedPortIsServedAndConflictFailsCleanly) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  // Second server on the same fixed port: bind fails, Start reports it.
  ObsServer::Options options;
  options.port = world.server.port();
  ObsServer second(std::move(options));
  EXPECT_FALSE(second.Start());
  EXPECT_FALSE(second.running());
  world.server.Stop();
}

TEST(ObsServerTest, ConcurrentScrapesDuringRecording) {
  ServerWorld world;
  ASSERT_TRUE(world.server.Start());
  obs::Counter events =
      world.metrics.GetCounter("icrowd.ingest.events_applied");
  const obs::Histogram lat = world.metrics.GetHistogram(
      "icrowd.ingest.apply_seconds", obs::ExponentialBuckets(1e-6, 4, 8));

  // Writers hammer the registry and the history while scrapers pull every
  // endpoint — the schedule TSan checks for races between the exporter
  // snapshot path, the series ring, and the lock-free recording shards.
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      events.Increment();
      lat.Observe(1e-5);
    }
  });
  std::thread sampler([&] {
    for (int i = 0; i < 50; ++i) {
      world.history.Sample(world.metrics, static_cast<double>(i));
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&world, t] {
      const char* paths[] = {"/metricsz", "/seriesz", "/statusz"};
      for (int i = 0; i < 10; ++i) {
        HttpResponse r = world.Get(paths[(t + i) % 3]);
        EXPECT_EQ(r.status, 200) << r.error;
      }
    });
  }
  writer.join();
  sampler.join();
  for (std::thread& s : scrapers) s.join();

  HttpResponse final_scrape = world.Get("/metricsz");
  EXPECT_NE(final_scrape.body.find("icrowd_ingest_events_applied 2000\n"),
            std::string::npos);
  world.server.Stop();
}

TEST(ObsServerTest, DeterministicExportUnaffectedByScraping) {
  MetricsRegistry metrics;
  metrics.GetCounter("icrowd.core.arrivals", {true, "det"}).Increment(42);
  metrics
      .GetHistogram("icrowd.assign.quality",
                    obs::LinearBuckets(0.1, 0.1, 9), {true, "det"})
      .Observe(0.55);
  obs::ExportOptions det;
  det.deterministic = true;
  const std::string before = metrics.ExportJsonlString(det);

  ObsServer::Options options;
  options.metrics = &metrics;
  ObsServer server(std::move(options));
  ASSERT_TRUE(server.Start());
  for (int i = 0; i < 5; ++i) {
    HttpResponse r = HttpGet("127.0.0.1", server.port(), "/metricsz");
    EXPECT_EQ(r.status, 200);
  }
  // The scrape renders from a snapshot and never writes back: the
  // deterministic dump must be bit-identical with the server attached
  // and actively scraped.
  EXPECT_EQ(metrics.ExportJsonlString(det), before);
  server.Stop();

  // And the Prometheus rendering of the same registry state is itself
  // byte-stable scrape over scrape.
  EXPECT_EQ(RenderPrometheus(metrics), RenderPrometheus(metrics));
}

TEST(ObsServerTest, SeriesSamplerFeedsHistoryInRealTime) {
  MetricsRegistry metrics;
  metrics.GetCounter("ticks").Increment(5);
  MetricsHistory history(16);
  obs::SeriesSamplerOptions options;
  options.period_seconds = 0.005;
  options.registry = &metrics;
  obs::SeriesSampler sampler(&history, options);
  while (sampler.samples_taken() < 3) {
    std::this_thread::yield();
  }
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_GE(history.size(), 3u);
  EXPECT_NE(history.RenderJson().find("\"ticks\":"), std::string::npos);
}

TEST(ObsServerTest, NullHistoryServesEmptySeriesDocument) {
  MetricsRegistry metrics;
  ObsServer::Options options;
  options.metrics = &metrics;
  ObsServer server(std::move(options));
  ASSERT_TRUE(server.Start());
  HttpResponse r = HttpGet("127.0.0.1", server.port(), "/seriesz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "{\"capacity\":0,\"snapshots\":0,\"windows\":[]}\n");
  server.Stop();
}

}  // namespace
}  // namespace icrowd
