// Heartbeat suite (DESIGN.md §14): registry semantics (naming, dedup,
// recycling, snapshot ages on an injected clock) and the end-to-end case
// the heartbeats exist for: a host shard thread deliberately wedged inside
// a campaign's journal sink, reported by /healthz while real threads run.
//
// Clock discipline for the fake-time tests: ManualClock is not internally
// synchronized, so the clock only advances while every thread that could
// stamp a heartbeat is parked or wedged — sequencing, not locking, is what
// keeps these tests TSan-clean.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/clock.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "obs/heartbeat.h"
#include "obs/http/http_server.h"

namespace icrowd {
namespace {

using obs::Heartbeat;
using obs::HeartbeatRegistry;
using obs::HeartbeatSnapshot;

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

// ------------------------------------------------- wedged-consumer e2e

/// A journal sink that, once armed, parks every Append until released:
/// the shard thread applying the campaign wedges inside it, busy (it
/// dequeued work) and silent — exactly the stall /healthz reports.
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
/// (fake Clock injected into the GLOBAL registry): /healthz on a server
/// over the global registries must answer 503 and name "host.shard". The
/// clock is only advanced while the shard is provably blocked in the sink,
/// so the fake clock is never read and written concurrently.
TEST(HealthzIngestTest, WedgedShardReports503) {
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
    // advance fake time past the stall bound and ask /healthz. The server
    // is never started; the request is routed without a socket.
    obs::ObsServer server;
    clock.Advance(60.0);
    const std::string response = server.HandleRequestForTesting(
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.1 503 ", 0), 0u) << response;
    EXPECT_NE(response.find("stalled: host.shard"), std::string::npos)
        << response;

    sink->Release();
    EXPECT_TRUE(manager->Drain(handle).ok());
    manager->Shutdown();
  }
  // Everything that stamps against the global registry is joined; only now
  // is it safe to drop the fake clock.
  registry.SetClock(nullptr);
}

}  // namespace
}  // namespace icrowd
