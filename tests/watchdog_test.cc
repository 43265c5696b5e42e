// Stall-watchdog suite (DESIGN.md §14): heartbeat registry semantics
// (naming, dedup, recycling, snapshot ages on an injected clock), watchdog
// trip logic driven deterministically through CheckNow() with a fake
// Clock (busy-stale trips, idle never trips, edge-triggered re-arm), the
// default trip handler's introspection dump, and the end-to-end case the
// subsystem exists for: a host shard thread deliberately wedged inside a
// campaign's journal sink, tripping the watchdog while real threads run.
//
// Clock discipline for the fake-time tests: ManualClock is not internally
// synchronized, so the clock only advances while every thread that could
// stamp a heartbeat is parked or wedged — sequencing, not locking, is what
// keeps these tests TSan-clean.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/logging.h"
#include "core/clock.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace icrowd {
namespace {

using obs::Heartbeat;
using obs::HeartbeatRegistry;
using obs::HeartbeatSnapshot;
using obs::Watchdog;
using obs::WatchdogOptions;

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------- registry

TEST(HeartbeatRegistryTest, RegisterNamesAndDedups) {
  HeartbeatRegistry registry;
  Heartbeat* a = registry.Register("consumer");
  Heartbeat* b = registry.Register("consumer");
  Heartbeat* c = registry.Register("flusher");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.size(), 3u);

  std::vector<HeartbeatSnapshot> snapshots = registry.Snapshots();
  ASSERT_EQ(snapshots.size(), 3u);
  // Sorted by name, duplicate suffixed.
  EXPECT_EQ(snapshots[0].name, "consumer");
  EXPECT_EQ(snapshots[1].name, "consumer#2");
  EXPECT_EQ(snapshots[2].name, "flusher");

  registry.Unregister(a);
  registry.Unregister(b);
  registry.Unregister(c);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(HeartbeatRegistryTest, UnregisterIsIdempotentAndNullSafe) {
  HeartbeatRegistry registry;
  Heartbeat* a = registry.Register("x");
  registry.Unregister(a);
  registry.Unregister(a);
  registry.Unregister(nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(HeartbeatRegistryTest, RecyclesDeadEntries) {
  HeartbeatRegistry registry;
  Heartbeat* a = registry.Register("first");
  a->MarkBusy();
  registry.Unregister(a);
  Heartbeat* b = registry.Register("second");
  // The pooled slot comes back reset: fresh name, idle, zero beats.
  EXPECT_EQ(registry.size(), 1u);
  std::vector<HeartbeatSnapshot> snapshots = registry.Snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].name, "second");
  EXPECT_FALSE(snapshots[0].busy);
  registry.Unregister(b);
}

TEST(HeartbeatRegistryTest, SnapshotAgesFollowInjectedClock) {
  HeartbeatRegistry registry;
  ManualClock clock(40.0);
  registry.SetClock(&clock);

  Heartbeat* consumer = registry.Register("consumer");
  consumer->MarkBusy();
  clock.Set(41.0);
  Heartbeat* flusher = registry.Register("flusher");
  flusher->MarkIdle();
  clock.Set(43.5);

  std::vector<HeartbeatSnapshot> snapshots = registry.Snapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].name, "consumer");
  EXPECT_TRUE(snapshots[0].busy);
  EXPECT_DOUBLE_EQ(snapshots[0].last_beat_seconds, 40.0);
  EXPECT_DOUBLE_EQ(snapshots[0].age_seconds, 3.5);
  EXPECT_EQ(snapshots[0].beats, 1u);
  EXPECT_EQ(snapshots[1].name, "flusher");
  EXPECT_FALSE(snapshots[1].busy);
  EXPECT_DOUBLE_EQ(snapshots[1].age_seconds, 2.5);

  registry.Unregister(consumer);
  registry.Unregister(flusher);
  registry.SetClock(nullptr);
}

// ---------------------------------------------------------------- watchdog

struct TripLog {
  std::vector<std::string> names;
  void Capture(const std::vector<HeartbeatSnapshot>& stalled) {
    for (const HeartbeatSnapshot& hb : stalled) names.push_back(hb.name);
  }
};

WatchdogOptions ManualOptions(TripLog* log) {
  WatchdogOptions options;
  options.stall_seconds = 5.0;
  options.start_monitor = false;  // tests drive scans via CheckNow()
  if (log != nullptr) {
    options.on_trip = [log](const std::vector<HeartbeatSnapshot>& stalled) {
      log->Capture(stalled);
    };
  }
  return options;
}

TEST(WatchdogTest, BusyStaleHeartbeatTrips) {
  HeartbeatRegistry registry;
  ManualClock clock(100.0);
  registry.SetClock(&clock);
  Heartbeat* consumer = registry.Register("ingest.consumer");
  consumer->MarkBusy();

  TripLog log;
  Watchdog watchdog(&registry, ManualOptions(&log));
  uint64_t trips_before =
      obs::MetricsRegistry::Global().CounterValue("icrowd.watchdog.trips");

  clock.Set(104.0);  // age 4 < 5: healthy
  EXPECT_EQ(watchdog.CheckNow(), 0u);
  clock.Set(105.5);  // age 5.5 >= 5: stalled
  CaptureLogs quiet;  // the trip logs at Error level; keep stderr clean
  EXPECT_EQ(watchdog.CheckNow(), 1u);
  ASSERT_EQ(log.names.size(), 1u);
  EXPECT_EQ(log.names[0], "ingest.consumer");
  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_TRUE(quiet.Contains("ingest.consumer"));
  EXPECT_EQ(
      obs::MetricsRegistry::Global().CounterValue("icrowd.watchdog.trips"),
      trips_before + 1);

  registry.Unregister(consumer);
  registry.SetClock(nullptr);
}

TEST(WatchdogTest, IdleHeartbeatNeverTrips) {
  HeartbeatRegistry registry;
  ManualClock clock(0.0);
  registry.SetClock(&clock);
  Heartbeat* parked = registry.Register("pool.worker");
  parked->MarkIdle();

  TripLog log;
  Watchdog watchdog(&registry, ManualOptions(&log));
  clock.Set(1e6);  // parked for ages — still healthy by contract
  EXPECT_EQ(watchdog.CheckNow(), 0u);
  EXPECT_TRUE(log.names.empty());

  registry.Unregister(parked);
  registry.SetClock(nullptr);
}

TEST(WatchdogTest, TripsAreEdgeTriggeredAndRearm) {
  HeartbeatRegistry registry;
  ManualClock clock(0.0);
  registry.SetClock(&clock);
  Heartbeat* consumer = registry.Register("ingest.consumer");
  consumer->MarkBusy();

  TripLog log;
  Watchdog watchdog(&registry, ManualOptions(&log));
  CaptureLogs quiet;

  clock.Set(10.0);
  EXPECT_EQ(watchdog.CheckNow(), 1u);
  // Same wedge, later scans: already reported, no re-trip.
  clock.Set(20.0);
  EXPECT_EQ(watchdog.CheckNow(), 0u);
  EXPECT_EQ(watchdog.trips(), 1u);

  // The thread recovers (stamp advances), then wedges again: re-armed.
  consumer->Beat();
  EXPECT_EQ(watchdog.CheckNow(), 0u);
  clock.Set(40.0);
  EXPECT_EQ(watchdog.CheckNow(), 1u);
  EXPECT_EQ(watchdog.trips(), 2u);
  ASSERT_EQ(log.names.size(), 2u);

  registry.Unregister(consumer);
  registry.SetClock(nullptr);
}

TEST(WatchdogTest, DefaultTripHandlerDumpsIntrospection) {
  const std::string dump_dir = testing::TempDir() + "watchdog_dump";
  ASSERT_EQ(0, system(("mkdir -p " + dump_dir).c_str()));
  const char* prior = std::getenv("ICROWD_OBS_DUMP_DIR");
  std::string prior_value = prior == nullptr ? "" : prior;
  ASSERT_EQ(0, setenv("ICROWD_OBS_DUMP_DIR", dump_dir.c_str(), 1));

  HeartbeatRegistry registry;
  ManualClock clock(0.0);
  registry.SetClock(&clock);
  Heartbeat* consumer = registry.Register("ingest.consumer");
  consumer->MarkBusy();

  WatchdogOptions options;
  options.stall_seconds = 5.0;
  options.start_monitor = false;
  // No on_trip: exercise the default DumpIntrospection("watchdog-trip").
  Watchdog watchdog(&registry, options);
  clock.Set(10.0);
  CaptureLogs quiet;
  EXPECT_EQ(watchdog.CheckNow(), 1u);

  const std::string stem = dump_dir + "/introspection-" +
                           std::to_string(static_cast<long>(getpid())) +
                           "-watchdog-trip";
  std::string flight = ReadFileOrEmpty(stem + "-flight.jsonl");
  std::string statusz = ReadFileOrEmpty(stem + "-statusz.txt");
  // The flight dump is JSONL and carries the trip mark; statusz renders
  // the full glossary (the dump reads GLOBAL state, so the wedged local
  // heartbeat is not in it — the trip mark is the cross-reference).
  EXPECT_NE(flight.find("\"tag\":\"watchdog.trip\""), std::string::npos)
      << flight;
  EXPECT_NE(statusz.find("=== icrowd statusz ==="), std::string::npos);
  EXPECT_NE(statusz.find("watchdog.trips"), std::string::npos);
  EXPECT_NE(statusz.find("[latency]"), std::string::npos);

  registry.Unregister(consumer);
  registry.SetClock(nullptr);
  if (prior == nullptr) {
    unsetenv("ICROWD_OBS_DUMP_DIR");
  } else {
    setenv("ICROWD_OBS_DUMP_DIR", prior_value.c_str(), 1);
  }
}

// ------------------------------------------------- wedged-consumer e2e

/// A journal sink that, once armed, parks every Append until released:
/// the shard thread applying the campaign wedges inside it, busy (it
/// dequeued work) and silent — exactly the stall the watchdog catches.
class BlockingSink : public JournalSink {
 public:
  Status Append(const uint8_t* data, size_t size) override {
    if (armed_.load()) {
      wedged_.store(true);
      while (!released_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return inner_.Append(data, size);
  }
  Status Flush() override { return Status::OK(); }

  void Arm() { armed_.store(true); }
  void Release() { released_.store(true); }
  bool wedged() const { return wedged_.load(); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> wedged_{false};
  std::atomic<bool> released_{false};
  VectorSink inner_;
};

/// Starts a 1-shard host whose one campaign journals through `sink`. The
/// sink stays disarmed through creation (the begin record must land), so
/// arm it afterwards.
std::unique_ptr<CampaignManager> StartWedgeableHost(
    std::shared_ptr<BlockingSink> sink, CampaignHandle* handle) {
  auto manager = CampaignManager::Start(HostConfig{});
  if (!manager.ok()) return nullptr;
  EntityResolutionOptions dataset_options;
  dataset_options.tasks_per_family = 5;
  CampaignManager::CampaignOptions options;
  options.name = "wedged";
  options.dataset = GenerateEntityResolution(dataset_options).MoveValueOrDie();
  options.config.num_qualification = 4;
  options.config.warmup.tasks_per_worker = 3;
  options.config.graph.measure = SimilarityMeasure::kJaccard;
  options.config.graph.threshold = 0.2;
  options.config.seed = 7;
  options.config.journal_sink = std::move(sink);
  auto created = (*manager)->CreateCampaign(std::move(options));
  if (!created.ok()) return nullptr;
  *handle = *created;
  return manager.MoveValueOrDie();
}

/// A shard thread deliberately wedged inside a campaign's journal sink
/// (fake Clock injected into the GLOBAL registry, scans driven by
/// CheckNow): the watchdog must trip on "host.shard" and the trip must
/// name it. The clock is only advanced while the shard is provably
/// blocked in the sink, so the fake clock is never read and written
/// concurrently.
TEST(WatchdogIngestTest, WedgedConsumerTripsWatchdog) {
  HeartbeatRegistry& registry = HeartbeatRegistry::Global();
  ManualClock clock(1000.0);
  registry.SetClock(&clock);
  {
    auto sink = std::make_shared<BlockingSink>();
    CampaignHandle handle;
    std::unique_ptr<CampaignManager> manager =
        StartWedgeableHost(sink, &handle);
    ASSERT_NE(manager, nullptr);
    sink->Arm();
    ASSERT_TRUE(manager->SubmitEvent(handle, IngestEvent::Arrived()).ok());
    while (!sink->wedged()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Shard is busy (dequeue -> apply -> journal append) and blocked:
    // advance fake time past the stall bound and scan.
    TripLog log;
    Watchdog watchdog(&registry, ManualOptions(&log));
    clock.Advance(60.0);
    CaptureLogs quiet;
    EXPECT_GE(watchdog.CheckNow(), 1u);
    bool shard_named = false;
    for (const std::string& name : log.names) {
      if (name.find("host.shard") != std::string::npos) shard_named = true;
    }
    EXPECT_TRUE(shard_named);

    sink->Release();
    EXPECT_TRUE(manager->Drain(handle).ok());
    manager->Shutdown();
  }
  // Everything that stamps against the global registry is joined; only now
  // is it safe to drop the fake clock.
  registry.SetClock(nullptr);
}

/// Same wedge, but detected by the real monitor thread on its own poll
/// cadence (steady clock, tight thresholds) — the production path.
TEST(WatchdogIngestTest, MonitorThreadDetectsWedgeOnItsOwn) {
  auto sink = std::make_shared<BlockingSink>();
  CampaignHandle handle;
  std::unique_ptr<CampaignManager> manager = StartWedgeableHost(sink, &handle);
  ASSERT_NE(manager, nullptr);

  std::atomic<bool> tripped{false};
  WatchdogOptions watchdog_options;
  watchdog_options.stall_seconds = 0.05;
  watchdog_options.poll_interval_seconds = 0.01;
  watchdog_options.on_trip =
      [&](const std::vector<HeartbeatSnapshot>& stalled) {
        for (const HeartbeatSnapshot& hb : stalled) {
          if (hb.name.find("host.shard") != std::string::npos) {
            tripped.store(true);
          }
        }
      };

  CaptureLogs quiet;
  Watchdog watchdog(&obs::HeartbeatRegistry::Global(), watchdog_options);
  sink->Arm();
  ASSERT_TRUE(manager->SubmitEvent(handle, IngestEvent::Arrived()).ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!tripped.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(tripped.load());

  sink->Release();
  EXPECT_TRUE(manager->Drain(handle).ok());
  manager->Shutdown();
  watchdog.Stop();
}

}  // namespace
}  // namespace icrowd
