// Multi-campaign host suite (DESIGN.md §16): the CampaignManager's
// handle-based v2 API and its cross-campaign isolation contract — a
// campaign hosted among many, at any shard count, must be bit-identical
// (journal bytes, results, accuracy estimates, deterministic metrics) to
// the same event stream run through a solo ICrowd. Plus lifecycle
// (create/open/close, duplicate and malformed names), failure isolation
// under journal fault injection and a throwing sink, kill-and-recover
// through per-shard journal files (including a reopen under a different
// shard count and a torn tail), concurrent producers (the TSan target),
// and the per-campaign /metricsz and /statusz providers.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "obs/http/http_client.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

namespace icrowd {
namespace {

constexpr size_t kNumWorkers = 6;

/// Campaign `index` gets its own dataset shape and seed so hosted
/// neighbours are structurally different — isolation bugs that only bite
/// when campaigns disagree on task counts or worker pools stay visible.
Dataset MakeDataset(size_t index) {
  EntityResolutionOptions options;
  options.tasks_per_family = 4 + index % 3;
  return GenerateEntityResolution(options).MoveValueOrDie();
}

uint64_t SeedOf(size_t index) { return 100 + 13 * index; }

int LeaveAfterOf(size_t index) { return index % 3 == 1 ? 6 : 0; }

ICrowdConfig MakeConfig(uint64_t seed) {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  return config;
}

obs::ExportOptions DeterministicExport() {
  obs::ExportOptions options;
  options.deterministic = true;
  options.include_events = false;
  return options;
}

std::vector<double> AccuracyGrid(const ICrowd& system) {
  std::vector<double> grid;
  size_t workers = system.state().num_workers();
  grid.reserve(workers * system.dataset().size());
  for (size_t w = 0; w < workers; ++w) {
    for (size_t t = 0; t < system.dataset().size(); ++t) {
      grid.push_back(system.strategy().accuracy_fn(static_cast<WorkerId>(w),
                                                   static_cast<TaskId>(t)));
    }
  }
  return grid;
}

struct SoloRun {
  bool finished = false;
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<double> accuracies;
  uint64_t events = 0;
  std::vector<IngestEvent> stream;
};

/// The solo reference for campaign `index`: a per-event driven ICrowd,
/// whose journal doubles as the canonical event stream the hosted reruns
/// consume. `engine`, when given, is the corpus engine another campaign
/// already built (as a host shares it); null builds one.
SoloRun RunSolo(size_t index,
                std::shared_ptr<const PprEngine> engine = nullptr) {
  Dataset dataset = MakeDataset(index);
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, kNumWorkers);
  ICrowdConfig config = MakeConfig(SeedOf(index));
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), std::move(config), {},
                               std::move(engine))
                    .MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = SeedOf(index);
  options.leave_after = LeaveAfterOf(index);
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  SoloRun run;
  run.finished = system->Finished();
  run.journal = sink->bytes();
  run.results = system->Results();
  run.accuracies = AccuracyGrid(*system);
  run.events = system->events_applied();
  auto parsed = ReadJournal(run.journal);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (parsed.ok()) run.stream = IngestStreamFromJournal(parsed->events);
  return run;
}

// "<prefix><index>", appended in a local: GCC 12's -Wrestrict misfires on
// `literal + std::to_string(...)` under -O2.
std::string Named(char prefix, size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

CampaignManager::CampaignOptions OptionsFor(size_t index,
                                            const std::string& name) {
  CampaignManager::CampaignOptions options;
  options.name = name;
  options.dataset = MakeDataset(index);
  options.config = MakeConfig(SeedOf(index));
  return options;
}

/// Checks one hosted campaign against its solo reference at a quiescent
/// point (after Drain).
void ExpectMatchesSolo(const CampaignManager& manager, CampaignHandle handle,
                       const SoloRun& solo, const std::string& tag) {
  auto inspected = manager.Inspect(handle);
  ASSERT_TRUE(inspected.ok()) << tag << ": " << inspected.status().ToString();
  const ICrowd& system = **inspected;
  EXPECT_EQ(system.Results(), solo.results) << tag;
  EXPECT_EQ(AccuracyGrid(system), solo.accuracies) << tag;
  EXPECT_EQ(system.events_applied(), solo.events) << tag;
  EXPECT_EQ(system.Finished(), solo.finished) << tag;
  auto journal = manager.JournalBytes(handle);
  ASSERT_TRUE(journal.ok()) << tag << ": " << journal.status().ToString();
  EXPECT_EQ(*journal, solo.journal) << tag;
}

// ------------------------------------------------------------- lifecycle --

TEST(HostLifecycleTest, CreateSubmitDrainCloseRoundTrip) {
  HostConfig host;
  host.num_shards = 2;
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  EXPECT_EQ(manager->num_shards(), 2u);

  SoloRun solo = RunSolo(0);
  auto handle =
      manager->CreateCampaign(OptionsFor(0, "round-trip")).MoveValueOrDie();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(manager->num_campaigns(), 1u);
  for (const IngestEvent& event : solo.stream) {
    ASSERT_TRUE(manager->SubmitEvent(handle, event).ok());
  }
  ASSERT_TRUE(manager->Drain(handle).ok());
  ExpectMatchesSolo(*manager, handle, solo, "round-trip");

  // Snapshot bridges back to the v1 surface: a solo Restore of the hosted
  // snapshot reproduces the campaign.
  auto snapshot = manager->Snapshot(handle);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto restored = ICrowd::Restore(MakeDataset(0), MakeConfig(SeedOf(0)),
                                  *snapshot, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), solo.results);

  EXPECT_TRUE(manager->CloseCampaign(handle).ok());
  EXPECT_EQ(manager->num_campaigns(), 0u);
  EXPECT_FALSE(manager->Drain(handle).ok());
  EXPECT_FALSE(manager->Inspect(handle).ok());
}

TEST(HostLifecycleTest, NamesAreValidatedAndUnique) {
  auto manager = CampaignManager::Start(HostConfig{}).MoveValueOrDie();
  EXPECT_FALSE(manager->CreateCampaign(OptionsFor(0, "")).ok());
  EXPECT_FALSE(manager->CreateCampaign(OptionsFor(0, "bad name")).ok());
  EXPECT_FALSE(manager->CreateCampaign(OptionsFor(0, "bad\"label")).ok());
  auto first = manager->CreateCampaign(OptionsFor(0, "taken"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto duplicate = manager->CreateCampaign(OptionsFor(1, "taken"));
  EXPECT_FALSE(duplicate.ok());
  // The failed reservation rolled back: closing frees the name for reuse.
  ASSERT_TRUE(manager->CloseCampaign(*first).ok());
  EXPECT_TRUE(manager->CreateCampaign(OptionsFor(0, "taken")).ok());
}

TEST(HostLifecycleTest, StaleAndInvalidHandlesAreNotFound) {
  auto manager = CampaignManager::Start(HostConfig{}).MoveValueOrDie();
  EXPECT_FALSE(manager->SubmitEvent(CampaignHandle{}, IngestEvent::Arrived())
                   .ok());
  EXPECT_FALSE(manager->Drain(CampaignHandle{912}).ok());
  EXPECT_FALSE(manager->Snapshot(CampaignHandle{912}).ok());
  EXPECT_FALSE(manager->CloseCampaign(CampaignHandle{912}).ok());
}

TEST(HostLifecycleTest, SubmitAndCreateFailAfterShutdown) {
  auto manager = CampaignManager::Start(HostConfig{}).MoveValueOrDie();
  auto handle =
      manager->CreateCampaign(OptionsFor(0, "shut")).MoveValueOrDie();
  manager->Shutdown();
  EXPECT_FALSE(manager->SubmitEvent(handle, IngestEvent::Arrived()).ok());
  EXPECT_FALSE(manager->CreateCampaign(OptionsFor(1, "late")).ok());
  // Nothing was in flight, so the drained campaign stays readable.
  EXPECT_TRUE(manager->Drain(handle).ok());
  EXPECT_TRUE(manager->Inspect(handle).ok());
}

TEST(HostLifecycleTest, HardwareConcurrencyHostSharesOnePool) {
  // num_threads = 0 means "hardware concurrency", not serial: the host must
  // create one pool and lend it to every campaign instead of each adaptive
  // assigner spawning its own.
  HostConfig host;
  host.num_threads = 0;
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  auto first = manager->CreateCampaign(OptionsFor(0, "pool-a"));
  auto second = manager->CreateCampaign(OptionsFor(1, "pool-b"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const ICrowd* a = manager->Inspect(*first).MoveValueOrDie();
  const ICrowd* b = manager->Inspect(*second).MoveValueOrDie();
  ASSERT_NE(a->host_config().pool, nullptr);
  EXPECT_EQ(a->host_config().pool, b->host_config().pool);
}

// ------------------------------------------------------------- isolation --

/// The PPR engine of campaign `index`'s corpus, built on its own.
std::shared_ptr<const PprEngine> BuildCorpusEngine(size_t index) {
  return std::make_shared<const PprEngine>(
      ICrowd::BuildEngine(MakeDataset(index), MakeConfig(SeedOf(index)))
          .MoveValueOrDie());
}

TEST(HostIsolationTest, HostedCampaignsAreBitIdenticalToSoloAtAnyShardCount) {
  constexpr size_t kCampaigns = 6;
  obs::MetricsRegistry::Global().ResetForTesting();
  // Campaigns c and c + 3 share a corpus, so the host builds three engines
  // and shares each once; the solo reference does the same work, and the
  // deterministic dumps below still compare whole.
  std::vector<std::shared_ptr<const PprEngine>> engines;
  for (size_t c = 0; c < 3; ++c) engines.push_back(BuildCorpusEngine(c));
  std::vector<SoloRun> solo;
  for (size_t c = 0; c < kCampaigns; ++c) {
    solo.push_back(RunSolo(c, engines[c % 3]));
  }
  engines.clear();
  const std::string solo_dump =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());

  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    obs::MetricsRegistry::Global().ResetForTesting();
    HostConfig host;
    host.num_shards = shards;
    host.max_batch = 16;
    auto manager = CampaignManager::Start(host).MoveValueOrDie();
    std::vector<CampaignHandle> handles;
    for (size_t c = 0; c < kCampaigns; ++c) {
      handles.push_back(
          manager->CreateCampaign(OptionsFor(c, Named('c', c)))
              .MoveValueOrDie());
    }
    // Interleave the streams round-robin in small chunks so every popped
    // batch mixes campaigns — the regrouping path under test.
    constexpr size_t kChunk = 3;
    std::vector<size_t> position(kCampaigns, 0);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t c = 0; c < kCampaigns; ++c) {
        size_t end = std::min(position[c] + kChunk, solo[c].stream.size());
        for (; position[c] < end; ++position[c]) {
          ASSERT_TRUE(
              manager->SubmitEvent(handles[c], solo[c].stream[position[c]])
                  .ok());
          progressed = true;
        }
      }
    }
    ASSERT_TRUE(manager->DrainAll().ok());
    for (size_t c = 0; c < kCampaigns; ++c) {
      ExpectMatchesSolo(*manager, handles[c], solo[c],
                        "shards" + std::to_string(shards) + "_c" +
                            std::to_string(c));
    }
    manager->Shutdown();
    // The deterministic metric dump of the hosted run matches the solo
    // runs applied back to back: batching, sharding and interleaving are
    // all invisible to the deterministic subset.
    EXPECT_EQ(
        obs::MetricsRegistry::Global().ExportJsonlString(
            DeterministicExport()),
        solo_dump)
        << "shards=" << shards;
    if (HasFailure()) return;
  }
}

TEST(HostIsolationTest, JournalFaultPoisonsOneCampaignOnly) {
  SoloRun solo_a = RunSolo(0);
  SoloRun solo_b = RunSolo(1);
  HostConfig host;
  host.num_shards = 1;  // same shard: the failure domain under test
  auto manager = CampaignManager::Start(host).MoveValueOrDie();

  auto healthy =
      manager->CreateCampaign(OptionsFor(0, "healthy")).MoveValueOrDie();
  CampaignManager::CampaignOptions doomed_options = OptionsFor(1, "doomed");
  doomed_options.config.journal_sink = std::make_shared<FaultInjectingSink>(
      std::make_shared<VectorSink>(), 512);
  auto doomed = manager->CreateCampaign(std::move(doomed_options));
  ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();

  for (size_t i = 0;
       i < std::max(solo_a.stream.size(), solo_b.stream.size()); ++i) {
    if (i < solo_a.stream.size()) {
      ASSERT_TRUE(manager->SubmitEvent(healthy, solo_a.stream[i]).ok());
    }
    if (i < solo_b.stream.size()) {
      // Accepted until the sink trips and the poisoning propagates; the
      // sticky failure then rejects at submit. Either way: never ack'd.
      (void)manager->SubmitEvent(*doomed, solo_b.stream[i]);
    }
  }
  EXPECT_FALSE(manager->Drain(*doomed).ok());
  ASSERT_TRUE(manager->Drain(healthy).ok());
  ExpectMatchesSolo(*manager, healthy, solo_a, "healthy-neighbour");
  // The poisoned campaign reports failed in the host ledger.
  bool saw_failed = false;
  for (const auto& stats : manager->Stats()) {
    if (stats.name == "doomed") saw_failed = stats.failed;
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_FALSE(manager->CloseCampaign(*doomed).ok());
  EXPECT_EQ(manager->num_campaigns(), 1u);
}

/// A journal sink that throws — a failure no Status carries — once its
/// byte budget is spent (the budget lets the campaign-begin record land).
class ThrowingSink : public JournalSink {
 public:
  explicit ThrowingSink(size_t budget) : budget_(budget) {}
  Status Append(const uint8_t* /*data*/, size_t size) override {
    if (written_ + size > budget_) {
      throw std::runtime_error("journal sink exploded");
    }
    written_ += size;
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }

 private:
  size_t budget_;
  size_t written_ = 0;
};

TEST(HostIsolationTest, ThrowingJournalSinkFailsOnlyItsCampaign) {
  // Without the shard loop's guard the throw escapes the shard thread and
  // std::terminate aborts the whole process; reaching the end of this
  // test is the no-abort assertion.
  SoloRun solo_a = RunSolo(0);
  SoloRun solo_b = RunSolo(1);
  HostConfig host;
  host.num_shards = 1;  // same shard: the failure domain under test
  auto manager = CampaignManager::Start(host).MoveValueOrDie();

  auto healthy =
      manager->CreateCampaign(OptionsFor(0, "healthy")).MoveValueOrDie();
  CampaignManager::CampaignOptions doomed_options = OptionsFor(1, "throws");
  doomed_options.config.journal_sink = std::make_shared<ThrowingSink>(512);
  auto doomed = manager->CreateCampaign(std::move(doomed_options));
  ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();

  for (size_t i = 0;
       i < std::max(solo_a.stream.size(), solo_b.stream.size()); ++i) {
    if (i < solo_a.stream.size()) {
      ASSERT_TRUE(manager->SubmitEvent(healthy, solo_a.stream[i]).ok());
    }
    if (i < solo_b.stream.size()) {
      // Refused with the sticky failure once the throw lands.
      (void)manager->SubmitEvent(*doomed, solo_b.stream[i]);
    }
  }
  Status drained = manager->Drain(*doomed);
  EXPECT_EQ(drained.code(), StatusCode::kInternal) << drained.ToString();
  EXPECT_NE(drained.ToString().find("journal sink exploded"),
            std::string::npos)
      << drained.ToString();
  ASSERT_TRUE(manager->Drain(healthy).ok());
  ExpectMatchesSolo(*manager, healthy, solo_a, "throwing-neighbour");
  for (const auto& stats : manager->Stats()) {
    EXPECT_EQ(stats.settled, stats.submitted) << stats.name;
    EXPECT_EQ(stats.failed, stats.name == "throws") << stats.name;
  }
}

TEST(HostIsolationTest, ConcurrentProducersMatchSolo) {
  constexpr size_t kCampaigns = 8;
  std::vector<SoloRun> solo;
  for (size_t c = 0; c < kCampaigns; ++c) solo.push_back(RunSolo(c));
  HostConfig host;
  host.num_shards = 2;
  host.queue_capacity = 64;  // small: exercises producer backpressure
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  std::vector<CampaignHandle> handles;
  for (size_t c = 0; c < kCampaigns; ++c) {
    handles.push_back(
        manager->CreateCampaign(OptionsFor(c, Named('p', c)))
            .MoveValueOrDie());
  }
  // One producer thread per campaign, all running at once (the TSan
  // target): per-handle calls are serialized within each thread, which is
  // all the contract asks.
  std::vector<std::thread> producers;
  std::vector<Status> drained(kCampaigns);
  for (size_t c = 0; c < kCampaigns; ++c) {
    producers.emplace_back([&, c] {
      for (const IngestEvent& event : solo[c].stream) {
        Status submitted = manager->SubmitEvent(handles[c], event);
        if (!submitted.ok()) {
          drained[c] = submitted;
          return;
        }
      }
      drained[c] = manager->Drain(handles[c]);
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (size_t c = 0; c < kCampaigns; ++c) {
    ASSERT_TRUE(drained[c].ok()) << "c" << c << ": " << drained[c].ToString();
    ExpectMatchesSolo(*manager, handles[c], solo[c],
                      "concurrent-c" + std::to_string(c));
  }
}

// -------------------------------------------------------------- recovery --

TEST(HostRecoveryTest, KillAndRecoverAcrossShardCounts) {
  constexpr size_t kCampaigns = 4;
  std::vector<SoloRun> solo;
  for (size_t c = 0; c < kCampaigns; ++c) solo.push_back(RunSolo(c));

  std::string journal_dir =
      ::testing::TempDir() + "/icrowd_host_recovery_test";
  std::filesystem::remove_all(journal_dir);

  // Phase 1: run a prefix of every stream, drain, then drop the manager
  // without closing anything — the "kill". The per-shard journal files
  // are the only survivors.
  {
    HostConfig host;
    host.num_shards = 2;
    host.journal_dir = journal_dir;
    auto manager = CampaignManager::Start(host).MoveValueOrDie();
    for (size_t c = 0; c < kCampaigns; ++c) {
      auto handle =
          manager->CreateCampaign(OptionsFor(c, "r" + std::to_string(c)))
              .MoveValueOrDie();
      // Different cut point per campaign (including cut = 0 events).
      size_t cut = solo[c].stream.size() * c / (2 * kCampaigns);
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(manager->SubmitEvent(handle, solo[c].stream[i]).ok());
      }
      // File mode: JournalBytes must refuse.
      EXPECT_FALSE(manager->JournalBytes(handle).ok());
    }
    ASSERT_TRUE(manager->DrainAll().ok());
  }

  // A torn tail on one journal: the mid-append crash OpenCampaign must
  // absorb (truncate, then keep appending cleanly).
  {
    auto shard0 = journal_dir + "/shard-0/r0.journal";
    ASSERT_TRUE(std::filesystem::exists(shard0));
    std::FILE* file = std::fopen(shard0.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const char garbage[] = "\x7f\x00torn";
    std::fwrite(garbage, 1, sizeof(garbage), file);
    std::fclose(file);
  }

  // Phase 2: reopen under a DIFFERENT shard count — placement is
  // execution state, the journals are found wherever they were written —
  // and finish every stream.
  {
    HostConfig host;
    host.num_shards = 3;
    host.journal_dir = journal_dir;
    auto manager = CampaignManager::Start(host).MoveValueOrDie();
    for (size_t c = 0; c < kCampaigns; ++c) {
      auto handle =
          manager->OpenCampaign(OptionsFor(c, "r" + std::to_string(c)));
      ASSERT_TRUE(handle.ok()) << "c" << c << ": "
                               << handle.status().ToString();
      // Resume exactly at the phase-1 cut (recomputed — it is a pure
      // function of the campaign index): replay re-derived the prefix,
      // submitting the tail finishes the stream.
      size_t cut = solo[c].stream.size() * c / (2 * kCampaigns);
      for (size_t i = cut; i < solo[c].stream.size(); ++i) {
        ASSERT_TRUE(manager->SubmitEvent(*handle, solo[c].stream[i]).ok());
      }
      ASSERT_TRUE(manager->Drain(*handle).ok());
      auto final_inspect = manager->Inspect(*handle).MoveValueOrDie();
      EXPECT_EQ(final_inspect->Results(), solo[c].results) << "c" << c;
      EXPECT_EQ(final_inspect->events_applied(), solo[c].events) << "c" << c;
      EXPECT_EQ(AccuracyGrid(*final_inspect), solo[c].accuracies)
          << "c" << c;
    }
    ASSERT_TRUE(manager->DrainAll().ok());
  }

  // The recovered journal files are byte-identical to the solo journals:
  // prefix (phase 1) + appended tail (phase 2), torn garbage gone.
  for (size_t c = 0; c < kCampaigns; ++c) {
    std::string path;
    for (int s = 0; s < 2; ++s) {
      std::string candidate = journal_dir + "/shard-" + std::to_string(s) +
                              "/r" + std::to_string(c) + ".journal";
      if (std::filesystem::exists(candidate)) path = candidate;
    }
    ASSERT_FALSE(path.empty()) << "c" << c;
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, solo[c].journal) << "c" << c;
  }
  std::filesystem::remove_all(journal_dir);
}

TEST(HostRecoveryTest, OpenFromExplicitImages) {
  SoloRun solo = RunSolo(2);
  auto manager = CampaignManager::Start(HostConfig{}).MoveValueOrDie();
  // Feed the full solo journal as the explicit recovery image.
  CampaignManager::CampaignOptions options = OptionsFor(2, "imaged");
  options.journal = solo.journal;
  auto handle = manager->OpenCampaign(std::move(options));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto inspected = manager->Inspect(*handle).MoveValueOrDie();
  EXPECT_EQ(inspected->Results(), solo.results);
  EXPECT_EQ(inspected->events_applied(), solo.events);
  // New events journal to a fresh VectorSink: only the post-open tail.
  auto tail = manager->JournalBytes(*handle);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_TRUE(tail->empty());
  // Opening without images and without a journal_dir has nothing to
  // recover from.
  EXPECT_FALSE(manager->OpenCampaign(OptionsFor(3, "nothing")).ok());
}

// ------------------------------------------------------- engine sharing --

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

/// Deltas of the counters that show whether a create built an engine.
struct EngineCounters {
  const uint64_t seeds = Counter("icrowd.ppr.seeds_solved");
  const uint64_t shares = Counter("icrowd.host.engine_shares");
  const uint64_t writes = Counter("icrowd.host.index_writes");
  uint64_t seeds_solved() const {
    return Counter("icrowd.ppr.seeds_solved") - seeds;
  }
  uint64_t engine_shares() const {
    return Counter("icrowd.host.engine_shares") - shares;
  }
  uint64_t index_writes() const {
    return Counter("icrowd.host.index_writes") - writes;
  }
};

void Feed(CampaignManager* manager, CampaignHandle handle,
          const std::vector<IngestEvent>& stream) {
  for (const IngestEvent& event : stream) {
    ASSERT_TRUE(manager->SubmitEvent(handle, event).ok());
  }
  ASSERT_TRUE(manager->Drain(handle).ok());
}

TEST(EngineSharingTest, SecondCreateOnAKnownCorpusSharesTheEngine) {
  // Campaigns 0 and 3 share a corpus (same tasks, graph and PPR options)
  // and differ in seed.
  const std::string journal_dir =
      ::testing::TempDir() + "/icrowd_host_engine_sharing_test";
  std::filesystem::remove_all(journal_dir);
  const SoloRun solo = RunSolo(3, BuildCorpusEngine(0));
  {
    HostConfig host;
    host.journal_dir = journal_dir;
    auto manager = CampaignManager::Start(host).MoveValueOrDie();
    EngineCounters first;
    ASSERT_TRUE(manager->CreateCampaign(OptionsFor(0, "first")).ok());
    EXPECT_GT(first.seeds_solved(), 0u);
    EXPECT_EQ(first.index_writes(), 1u);
    EXPECT_EQ(first.engine_shares(), 0u);

    EngineCounters second;
    auto handle = manager->CreateCampaign(OptionsFor(3, "second"));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(second.seeds_solved(), 0u);
    EXPECT_EQ(second.index_writes(), 0u);
    EXPECT_EQ(second.engine_shares(), 1u);
    EXPECT_NE(manager->RenderCampaignMetrics().find("icrowd_host_corpora 1\n"),
              std::string::npos);

    Feed(manager.get(), *handle, solo.stream);
    const ICrowd& system = *manager->Inspect(*handle).MoveValueOrDie();
    EXPECT_EQ(system.Results(), solo.results);
    EXPECT_EQ(AccuracyGrid(system), solo.accuracies);
    EXPECT_EQ(system.events_applied(), solo.events);
  }
  auto journal = ReadFileBytes(journal_dir + "/shard-0/second.journal");
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(*journal, solo.journal);
  std::filesystem::remove_all(journal_dir);
}

TEST(EngineSharingTest, OtherGraphPprOrFeaturesBuildTheirOwnEngine) {
  auto manager = CampaignManager::Start(HostConfig{}).MoveValueOrDie();
  size_t created = 0;
  // Creates a campaign on `dataset` under `config` and reports whether it
  // solved its own engine.
  auto builds = [&](Dataset dataset, ICrowdConfig config) {
    CampaignManager::CampaignOptions options;
    options.name = Named('v', created++);
    options.dataset = std::move(dataset);
    options.config = std::move(config);
    EngineCounters counters;
    auto handle = manager->CreateCampaign(std::move(options));
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    const bool built = counters.seeds_solved() > 0;
    EXPECT_EQ(counters.engine_shares(), built ? 0u : 1u);
    return built;
  };
  const ICrowdConfig base = MakeConfig(SeedOf(0));
  EXPECT_TRUE(builds(MakeDataset(0), base));
  ICrowdConfig reseeded = base;
  reseeded.seed = SeedOf(1);
  EXPECT_FALSE(builds(MakeDataset(0), reseeded));
  ICrowdConfig threshold = base;
  threshold.graph.threshold = 0.25;
  EXPECT_TRUE(builds(MakeDataset(0), threshold));
  ICrowdConfig tolerance = base;
  tolerance.estimator.ppr.tolerance *= 0.5;
  EXPECT_TRUE(builds(MakeDataset(0), tolerance));

  // Under the Euclidean measure the features are part of the corpus.
  auto with_features = [](double first) {
    const Dataset source = MakeDataset(0);
    Dataset dataset(source.name());
    for (Microtask task : source.tasks()) {
      task.features = {task.id == 0 ? first : 0.0,
                       static_cast<double>(task.id)};
      dataset.AddTask(std::move(task));
    }
    return dataset;
  };
  ICrowdConfig euclidean = base;
  euclidean.graph.measure = SimilarityMeasure::kEuclidean;
  EXPECT_TRUE(builds(with_features(0.0), euclidean));
  EXPECT_FALSE(builds(with_features(0.0), euclidean));
  EXPECT_TRUE(builds(with_features(0.5), euclidean));
  EXPECT_NE(manager->RenderCampaignMetrics().find("icrowd_host_corpora 5\n"),
            std::string::npos);
}

TEST(EngineSharingTest, ConcurrentCreatesOnOneCorpusShareOneEngine) {
  // Racing creates may each build, but only the first engine published is
  // kept: every campaign ends up on it, and all serve bit-identically.
  constexpr size_t kCampaigns = 4;
  const SoloRun solo = RunSolo(0);
  HostConfig host;
  host.num_shards = 2;
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  EngineCounters counters;
  std::vector<Result<CampaignHandle>> handles(
      kCampaigns, Status::Internal("not created"));
  std::vector<std::thread> creators;
  for (size_t c = 0; c < kCampaigns; ++c) {
    creators.emplace_back([&, c] {
      handles[c] = manager->CreateCampaign(OptionsFor(0, Named('p', c)));
    });
  }
  for (std::thread& creator : creators) creator.join();
  EXPECT_EQ(counters.engine_shares(), kCampaigns - 1);
  EXPECT_NE(manager->RenderCampaignMetrics().find("icrowd_host_corpora 1\n"),
            std::string::npos);
  std::vector<std::thread> producers;
  for (size_t c = 0; c < kCampaigns; ++c) {
    ASSERT_TRUE(handles[c].ok()) << handles[c].status().ToString();
    producers.emplace_back(
        [&, c] { Feed(manager.get(), *handles[c], solo.stream); });
  }
  for (std::thread& producer : producers) producer.join();
  for (size_t c = 0; c < kCampaigns; ++c) {
    ExpectMatchesSolo(*manager, *handles[c], solo, Named('p', c));
  }
}

// --------------------------------------------------------- observability --

TEST(HostObsTest, PerCampaignMetricsAndStatuszSections) {
  SoloRun solo = RunSolo(0);
  HostConfig host;
  host.num_shards = 2;
  host.serve_obs_port = 0;  // ephemeral
  host.campaign_label = "host-under-test";
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  ASSERT_GT(manager->obs_port(), 0);
  auto alpha = manager->CreateCampaign(OptionsFor(0, "alpha"));
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  auto beta = manager->CreateCampaign(OptionsFor(1, "beta"));
  ASSERT_TRUE(beta.ok()) << beta.status().ToString();
  for (const IngestEvent& event : solo.stream) {
    ASSERT_TRUE(manager->SubmitEvent(*alpha, event).ok());
  }
  ASSERT_TRUE(manager->Drain(*alpha).ok());

  std::string rendered = manager->RenderCampaignMetrics();
  EXPECT_NE(rendered.find("icrowd_host_campaigns 2\n"), std::string::npos);
  EXPECT_NE(rendered.find("icrowd_host_corpora 2\n"), std::string::npos);
  EXPECT_NE(rendered.find("icrowd_host_shards 2\n"), std::string::npos);
  EXPECT_NE(rendered.find("icrowd_host_campaign_events_applied{campaign="
                          "\"alpha\"} " +
                          std::to_string(solo.events)),
            std::string::npos);
  EXPECT_NE(
      rendered.find("icrowd_host_campaign_events_submitted{campaign="
                    "\"beta\"} 0"),
      std::string::npos);

  // Through the real server: the extra_metricsz hook appends the block
  // after the registry render, and the text /statusz grows the [host]
  // section while JSON stays untouched.
  obs::HttpResponse metricsz =
      obs::HttpGet("127.0.0.1", manager->obs_port(), "/metricsz");
  ASSERT_EQ(metricsz.status, 200);
  EXPECT_NE(metricsz.body.find("icrowd_host_campaign_events_applied"),
            std::string::npos);
  EXPECT_NE(metricsz.body.find("campaign=\"host-under-test\""),
            std::string::npos);
  // Engine reuse: the registry's counter and the host block's gauge, each
  // exported once.
  EXPECT_NE(metricsz.body.find("# TYPE icrowd_host_engine_shares counter"),
            std::string::npos);
  EXPECT_NE(metricsz.body.find("icrowd_host_corpora 2\n"), std::string::npos);
  obs::HttpResponse statusz =
      obs::HttpGet("127.0.0.1", manager->obs_port(), "/statusz");
  ASSERT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("[host]"), std::string::npos);
  EXPECT_NE(statusz.body.find("alpha shard="), std::string::npos);
  EXPECT_NE(statusz.body.find("\ncorpora 2\n"), std::string::npos);
  EXPECT_NE(statusz.body.find("\nengine_shares "), std::string::npos);
  obs::HttpResponse statusz_json = obs::HttpGet(
      "127.0.0.1", manager->obs_port(), "/statusz?format=json");
  ASSERT_EQ(statusz_json.status, 200);
  EXPECT_EQ(statusz_json.body.find("[host]"), std::string::npos);
  // A host keeps the same series history a served campaign does.
  obs::HttpResponse seriesz =
      obs::HttpGet("127.0.0.1", manager->obs_port(), "/seriesz");
  ASSERT_EQ(seriesz.status, 200);
  EXPECT_EQ(seriesz.body.find("\"capacity\":0,"), std::string::npos)
      << seriesz.body;
  EXPECT_NE(seriesz.body.find("\"capacity\":"), std::string::npos)
      << seriesz.body;

  // Host ledger columns behave: submitted == settled after drain.
  for (const auto& stats : manager->Stats()) {
    EXPECT_EQ(stats.submitted, stats.settled) << stats.name;
    if (stats.name == "alpha") {
      EXPECT_EQ(stats.submitted, solo.stream.size());
      EXPECT_TRUE(stats.finished);
    }
  }
}

TEST(HostObsTest, RefusedEventIsCountedAndExported) {
  // An answer for a task the worker does not hold is a per-event refusal:
  // the producer's SubmitEvent and Drain still succeed, so the ledger's
  // refused column and its /metricsz sample are the only trace.
  HostConfig host;
  host.serve_obs_port = 0;  // ephemeral
  auto manager = CampaignManager::Start(host).MoveValueOrDie();
  ASSERT_GT(manager->obs_port(), 0);
  auto handle = manager->CreateCampaign(OptionsFor(0, "refusing"));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_TRUE(manager->SubmitEvent(*handle, IngestEvent::Arrived()).ok());
  ASSERT_TRUE(
      manager->SubmitEvent(*handle, IngestEvent::Answered(0, 0, kYes)).ok());
  ASSERT_TRUE(manager->Drain(*handle).ok());

  std::vector<CampaignManager::CampaignStats> stats = manager->Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].settled, 2u);
  EXPECT_EQ(stats[0].refused, 1u);
  EXPECT_FALSE(stats[0].failed);

  obs::HttpResponse metricsz =
      obs::HttpGet("127.0.0.1", manager->obs_port(), "/metricsz");
  ASSERT_EQ(metricsz.status, 200);
  EXPECT_NE(metricsz.body.find("icrowd_host_campaign_events_refused{campaign="
                               "\"refusing\"} 1\n"),
            std::string::npos)
      << metricsz.body;
  EXPECT_NE(metricsz.body.find("icrowd_ingest_events_refused"),
            std::string::npos);
  obs::HttpResponse statusz =
      obs::HttpGet("127.0.0.1", manager->obs_port(), "/statusz");
  ASSERT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find(" refused=1 "), std::string::npos)
      << statusz.body;
}

}  // namespace
}  // namespace icrowd
