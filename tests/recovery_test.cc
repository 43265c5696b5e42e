// Crash-recovery tests for durable campaigns (DESIGN.md §11): the journal +
// snapshot + tail-replay machinery must reconstruct a campaign bit-identical
// to the uninterrupted run from any kill point — a byte-offset truncation of
// the journal (the process died mid-append), a fault-injected sink (the disk
// died mid-run), a snapshot plus tail, or a snapshot newer than the tail.
// The host half: CampaignManager checkpoints and the corpus index must
// never change a recovered campaign, whether they are used or refused, and
// mid-log journal damage must fail loudly instead of being truncated away.
//
// When a recovery expectation fails and ICROWD_RECOVERY_DUMP_DIR is set,
// the offending journal and its JSONL rendering are written there (CI
// uploads them as the failure artifact).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/binary_io.h"
#include "common/random.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "datagen/poi.h"
#include "datagen/scalability.h"
#include "host/campaign_manager.h"
#include "host/recovery_files.h"
#include "ingest/event.h"
#include "io/framing.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

namespace icrowd {
namespace {

constexpr size_t kNumWorkers = 8;

// Every (task id, value) pair a stored seed vector yields, in order.
SparseEntries Entries(const SeedVectorView& seed) {
  return SparseEntries(seed.begin(), seed.end());
}

Dataset MakeDataset() {
  EntityResolutionOptions options;
  options.tasks_per_family = 5;
  return GenerateEntityResolution(options).MoveValueOrDie();
}

std::vector<WorkerProfile> MakeProfiles(const Dataset& dataset) {
  return GenerateEntityResolutionWorkers(dataset, kNumWorkers);
}

ICrowdConfig MakeConfig(uint64_t seed,
                        StrategyKind strategy = StrategyKind::kAdapt) {
  ICrowdConfig config;
  config.strategy = strategy;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  return config;
}

HostConfig MakeHost(size_t threads) {
  HostConfig host;
  host.num_threads = threads;
  return host;
}

obs::ExportOptions DeterministicExport() {
  obs::ExportOptions options;
  options.deterministic = true;
  options.include_events = false;
  return options;
}

struct LiveRun {
  bool finished = false;
  /// The campaign, left running on its journal sink: hostile inputs are
  /// cut from what it journals next.
  std::shared_ptr<VectorSink> sink;
  std::unique_ptr<ICrowd> system;
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<CapturedSnapshot> snapshots;
  uint64_t events = 0;
  std::string det_metrics;  // deterministic-metrics JSONL at campaign end
};

/// One uninterrupted journaled campaign: the reference run every recovery
/// scenario is compared against.
LiveRun RunLive(uint64_t seed, size_t threads, int snapshot_every = 0,
                int leave_after = 0,
                StrategyKind strategy = StrategyKind::kAdapt) {
  obs::MetricsRegistry::Global().ResetForTesting();
  Dataset dataset = MakeDataset();
  std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
  ICrowdConfig config = MakeConfig(seed, strategy);
  LiveRun run;
  run.sink = std::make_shared<VectorSink>();
  config.journal_sink = run.sink;
  run.system = ICrowd::Create(std::move(dataset), config, MakeHost(threads))
                   .MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  options.snapshot_every = snapshot_every;
  options.leave_after = leave_after;
  auto outcome =
      DriveCampaign(run.system.get(), profiles, kNumWorkers, options);
  if (outcome.ok()) {
    run.finished = outcome->finished;
    run.snapshots = std::move(outcome->snapshots);
  } else {
    ADD_FAILURE() << "live drive failed: " << outcome.status().ToString();
  }
  run.journal = run.sink->bytes();
  run.results = run.system->Results();
  run.events = run.system->events_applied();
  run.det_metrics =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());
  return run;
}

/// Failure artifact: the journal under test plus its JSONL dump, written to
/// $ICROWD_RECOVERY_DUMP_DIR when set (CI uploads the directory).
void DumpOnFailure(const std::vector<uint8_t>& journal,
                   const std::string& tag) {
  const char* dir = std::getenv("ICROWD_RECOVERY_DUMP_DIR");
  if (dir == nullptr) return;
  std::string base = std::string(dir) + "/" + tag;
  Status written = WriteFileBytes(base + ".journal", journal);
  if (!written.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", written.ToString().c_str());
    return;
  }
  Status dumped = DumpJournalJsonl(base + ".journal", base + ".jsonl");
  if (!dumped.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", dumped.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "recovery artifacts: %s.journal %s.jsonl\n",
               base.c_str(), base.c_str());
}

/// A campaign restored from a crash image with a fresh VectorSink as its
/// journal sink, so the records it writes from the resume point on can be
/// compared byte for byte with the reference journal.
struct Resumed {
  std::shared_ptr<VectorSink> rewritten = std::make_shared<VectorSink>();
  std::unique_ptr<ICrowd> system;
};

Result<Resumed> RestoreRecording(ICrowdConfig config,
                                 const std::vector<uint8_t>& snapshot,
                                 const std::vector<uint8_t>& journal,
                                 HostConfig host = {}) {
  Resumed resumed;
  config.journal_sink = resumed.rewritten;
  ICROWD_ASSIGN_OR_RETURN(
      resumed.system, ICrowd::Restore(MakeDataset(), std::move(config),
                                      snapshot, journal, std::move(host)));
  return resumed;
}

/// Finishes a resumed campaign the way the reference run finished: the
/// reference journal's events past the resume point are re-ingested through
/// ApplyEventBatch, `chunk` events per batch, and every outcome must be OK.
/// The journal the campaign re-writes must equal the reference suffix from
/// the same frame — equal bytes pin every arrival id, served task and
/// answer the re-ingest produced.
void FinishLikeReference(const Resumed& resumed, const LiveRun& live,
                         size_t chunk) {
  auto parsed = ReadJournal(live.journal);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const size_t from = static_cast<size_t>(resumed.system->events_applied());
  std::vector<IngestEvent> remaining =
      IngestStreamFromJournal(parsed->events, from);
  for (size_t start = 0; start < remaining.size(); start += chunk) {
    size_t end = std::min(start + chunk, remaining.size());
    std::vector<IngestEvent> batch(
        remaining.begin() + static_cast<long>(start),
        remaining.begin() + static_cast<long>(end));
    auto outcomes = resumed.system->ApplyEventBatch(batch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    for (const IngestOutcome& outcome : *outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    }
  }
  // The rewritten suffix starts at the first non-replayed frame. frames[]
  // holds payload offsets; back up over the frame header to land on the
  // frame boundary.
  FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
  ASSERT_LE(from, scan.frames.size());
  size_t tail_start = from < scan.frames.size()
                          ? scan.frames[from].first - kFrameHeaderBytes
                          : live.journal.size();
  std::vector<uint8_t> expected_tail(
      live.journal.begin() + static_cast<long>(tail_start),
      live.journal.end());
  EXPECT_EQ(resumed.rewritten->bytes(), expected_tail);
}

/// One kill sweep: for each seed and thread count, the reference journal is
/// cut every `stride` bytes past the campaign-begin frame (the prime stride
/// hits mid-header, mid-payload and boundary phases), restored, and
/// finished by re-ingesting the lost tail in `chunk`-event batches.
void KillSweep(const std::string& name, const std::vector<uint64_t>& seeds,
               const std::vector<size_t>& thread_counts, size_t stride,
               size_t chunk) {
  for (uint64_t seed : seeds) {
    for (size_t threads : thread_counts) {
      LiveRun live = RunLive(seed, threads);
      ASSERT_TRUE(live.finished);
      FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
      ASSERT_FALSE(scan.frames.empty());
      // Restore needs at least the campaign-begin frame; past that, every
      // truncation point must recover.
      size_t min_offset = scan.frames[0].first + scan.frames[0].second;
      for (size_t offset = min_offset; offset <= live.journal.size();
           offset += stride) {
        std::string tag = name + "_seed" + std::to_string(seed) + "_t" +
                          std::to_string(threads) + "_off" +
                          std::to_string(offset);
        SCOPED_TRACE(tag);
        std::vector<uint8_t> prefix(
            live.journal.begin(),
            live.journal.begin() + static_cast<long>(offset));
        auto resumed =
            RestoreRecording(MakeConfig(seed), {}, prefix, MakeHost(threads));
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        FinishLikeReference(*resumed, live, chunk);
        EXPECT_EQ(resumed->system->Results(), live.results);
        EXPECT_EQ(resumed->system->events_applied(), live.events);
        if (::testing::Test::HasFailure()) {
          DumpOnFailure(live.journal, tag);
          return;
        }
      }
    }
  }
}

// ------------------------------------------------------------ full replay --

TEST(RecoveryTest, FullReplayIsBitIdenticalToLive) {
  for (uint64_t seed : {11u, 77u}) {
    // leave_after exercises kWorkerLeft records in the stream.
    LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/0,
                           /*leave_after=*/20);
    obs::MetricsRegistry::Global().ResetForTesting();
    auto restored =
        ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, live.journal);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->Results(), live.results);
    EXPECT_EQ((*restored)->events_applied(), live.events);
    // Replay re-derives every decision through the same code paths, so the
    // deterministic-metrics dump must match the live run bit for bit.
    EXPECT_EQ(obs::MetricsRegistry::Global().ExportJsonlString(
                  DeterministicExport()),
              live.det_metrics);
    if (HasFailure()) {
      DumpOnFailure(live.journal, "full_replay_seed" + std::to_string(seed));
      return;
    }
  }
}

// --------------------------------------------- kill-at-any-offset recovery --

TEST(RecoveryTest, KillAtAnyOffsetRecoversBitIdentical) {
  // Every truncation point recovers, and re-ingesting the lost tail one
  // event at a time, at either thread count, lands on the reference run.
  KillSweep("kill", {11u, 77u}, {size_t{1}, size_t{8}}, /*stride=*/199,
            /*chunk=*/1);
}

// ------------------------------------------------- kill-mid-batch recovery --

TEST(RecoveryTest, KillMidBatchRecoversThroughBatchedReingest) {
  // The batched path defers the journal flush to the batch end, so a crash
  // can land anywhere inside a batch's worth of appended-but-unflushed
  // records. Whatever prefix reached storage, recovery plus a *batched*
  // re-ingest of the lost tail must converge on the per-event reference.
  // The prime stride differs from the per-event sweep's, so the two tests
  // cut the journal at different header/payload/boundary phases.
  KillSweep("killbatch", {11u, 77u}, {size_t{1}}, /*stride=*/173,
            /*chunk=*/7);
}

// ------------------------------------------------------- snapshot recovery --

TEST(RecoveryTest, EverySnapshotPlusTailMatchesLive) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/7);
  ASSERT_FALSE(live.snapshots.empty());
  for (const CapturedSnapshot& snapshot : live.snapshots) {
    auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed),
                                    snapshot.bytes, live.journal);
    ASSERT_TRUE(restored.ok())
        << "snapshot at " << snapshot.events_applied << ": "
        << restored.status().ToString();
    EXPECT_EQ((*restored)->Results(), live.results);
    EXPECT_EQ((*restored)->events_applied(), live.events);
  }
  if (HasFailure()) DumpOnFailure(live.journal, "snapshot_tail");
}

TEST(RecoveryTest, SnapshotNewerThanJournalTailReplaysNothing) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/7);
  ASSERT_FALSE(live.snapshots.empty());
  const CapturedSnapshot& snapshot = live.snapshots.back();
  // The persisted journal lost its tail (e.g. a lagging replica), leaving
  // the snapshot ahead of it.
  std::vector<uint8_t> prefix(
      live.journal.begin(),
      live.journal.begin() + static_cast<long>(live.journal.size() / 2));
  auto parsed = ReadJournal(prefix);
  ASSERT_TRUE(parsed.ok());
  ASSERT_LT(parsed->events.size(), snapshot.events_applied)
      << "half journal should be older than the last snapshot";
  auto resumed =
      RestoreRecording(MakeConfig(seed), snapshot.bytes, prefix);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->system->events_applied(), snapshot.events_applied);
  // Finishing from the snapshot position must land on the reference run.
  FinishLikeReference(*resumed, live, /*chunk=*/1);
  EXPECT_EQ(resumed->system->Results(), live.results);
  if (HasFailure()) DumpOnFailure(live.journal, "snapshot_newer");
}

// ------------------------------------------------------------- torn tails --

TEST(RecoveryTest, TornFinalRecordIsDroppedAndRederived) {
  const uint64_t seed = 77;
  LiveRun live = RunLive(seed, /*threads=*/1);
  // Garbage after the last intact frame (the classic mid-append crash).
  std::vector<uint8_t> torn = live.journal;
  torn.insert(torn.end(), {0x07, 0x00, 0x00});
  auto restored =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, torn);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), live.results);
  EXPECT_EQ((*restored)->events_applied(), live.events);

  // A final record cut mid-frame: the lost event is re-derived by
  // re-ingesting it.
  std::vector<uint8_t> cut(live.journal.begin(), live.journal.end() - 3);
  auto reopened = RestoreRecording(MakeConfig(seed), {}, cut);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_LT(reopened->system->events_applied(), live.events);
  FinishLikeReference(*reopened, live, /*chunk=*/1);
  EXPECT_EQ(reopened->system->Results(), live.results);
  if (HasFailure()) DumpOnFailure(live.journal, "torn_tail");
}

// ----------------------------------------- mid-run sink death + poisoning --

TEST(RecoveryTest, SinkFailureMidRunPoisonsAndRecovers) {
  const uint64_t seed = 11;
  LiveRun reference = RunLive(seed, /*threads=*/1);
  ASSERT_GT(reference.journal.size(), 100u);
  for (double fraction : {0.25, 0.5, 0.8}) {
    // +3 lands the budget mid-frame: the append is torn, exactly like a
    // process killed inside write(2).
    size_t budget =
        static_cast<size_t>(static_cast<double>(reference.journal.size()) *
                            fraction) +
        3;
    Dataset dataset = MakeDataset();
    std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
    ICrowdConfig config = MakeConfig(seed);
    auto inner = std::make_shared<VectorSink>();
    auto faulty = std::make_shared<FaultInjectingSink>(inner, budget);
    config.journal_sink = faulty;
    auto created = ICrowd::Create(std::move(dataset), config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
    CampaignDriverOptions options;
    options.seed = seed;
    auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
    ASSERT_FALSE(outcome.ok()) << "the sink was meant to die mid-run";
    EXPECT_TRUE(faulty->tripped());
    EXPECT_TRUE(system->failed());
    // Poisoned: journal and state may disagree, so every mutating call and
    // Snapshot() are refused until the caller restores.
    EXPECT_EQ(system->OnWorkerArrived().status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->RequestTask(0).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->SubmitAnswer(0, 0, kNo).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->Snapshot().status().code(),
              StatusCode::kFailedPrecondition);
    // Recovery sees only what reached storage — including the torn final
    // frame, which the scanner drops — and the campaign then runs to
    // completion.
    auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed), {},
                                    inner->bytes());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::unique_ptr<ICrowd> resumed = restored.MoveValueOrDie();
    auto continued =
        DriveCampaign(resumed.get(), profiles, kNumWorkers, options);
    ASSERT_TRUE(continued.ok()) << continued.status().ToString();
    EXPECT_TRUE(continued->finished);
    EXPECT_TRUE(resumed->Finished());
    if (HasFailure()) {
      DumpOnFailure(inner->bytes(),
                    "sink_failure_" + std::to_string(budget));
      return;
    }
  }
}

// ------------------------------------------------- thread-count invariance --

TEST(RecoveryTest, JournalBytesIdenticalAcrossThreadCounts) {
  LiveRun serial = RunLive(11, /*threads=*/1);
  LiveRun parallel = RunLive(11, /*threads=*/8);
  // The journal is part of the determinism contract: the bytes written at
  // 8 threads are the bytes written at 1.
  EXPECT_EQ(serial.journal, parallel.journal);
  EXPECT_EQ(serial.results, parallel.results);
  EXPECT_EQ(serial.det_metrics, parallel.det_metrics);
  // And recovery may change the thread count: the fingerprint deliberately
  // excludes it, so a 1-thread journal restores under an 8-thread config.
  auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(11), {},
                                  serial.journal, MakeHost(8));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), serial.results);
  if (HasFailure()) DumpOnFailure(serial.journal, "thread_invariance");
}

// -------------------------------------------------- mismatches and misuse --

TEST(RecoveryTest, RestoreRejectsMismatchedCampaign) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, 1);
  // Different config (k) — fingerprint mismatch.
  ICrowdConfig other_config = MakeConfig(seed);
  other_config.assignment_size = 5;
  EXPECT_FALSE(
      ICrowd::Restore(MakeDataset(), other_config, {}, live.journal).ok());
  // Different similarity measure — the graph, and with it every estimate,
  // differs, so the journal must not replay.
  ICrowdConfig other_graph = MakeConfig(seed);
  other_graph.graph.measure = SimilarityMeasure::kCosineTfIdf;
  auto restored =
      ICrowd::Restore(MakeDataset(), other_graph, {}, live.journal);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find("fingerprint mismatch"),
            std::string::npos);
  // Different dataset — fingerprint mismatch.
  EntityResolutionOptions other_data;
  other_data.tasks_per_family = 6;
  EXPECT_FALSE(ICrowd::Restore(
                   GenerateEntityResolution(other_data).MoveValueOrDie(),
                   MakeConfig(seed), {}, live.journal)
                   .ok());
  // Nothing to restore from.
  EXPECT_FALSE(ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, {})
                   .ok());
}

TEST(RecoveryTest, EuclideanJournalIsRefusedUnderPerturbedFeatures) {
  // A POI campaign's graph comes from its tasks' feature vectors, so they
  // are part of its fingerprint: with one coordinate moved the graph may
  // differ, and the journal must not replay against it.
  PoiOptions poi;
  poi.num_districts = 3;
  poi.tasks_per_district = 8;
  const Dataset dataset = GeneratePoiVerification(poi).MoveValueOrDie();
  ICrowdConfig config = MakeConfig(11);
  config.graph.measure = SimilarityMeasure::kEuclidean;
  config.graph.threshold = 0.85;
  ICrowdConfig recording = config;
  auto sink = std::make_shared<VectorSink>();
  recording.journal_sink = sink;
  auto live = ICrowd::Create(dataset, recording);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  CampaignDriverOptions options;
  options.seed = 11;
  ASSERT_TRUE(DriveCampaign(live->get(), GeneratePoiWorkers(dataset, 6), 6,
                            options)
                  .ok());
  auto same = ICrowd::Restore(dataset, config, {}, sink->bytes());
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ((*same)->Results(), (*live)->Results());

  Dataset perturbed(dataset.name());
  for (const Microtask& task : dataset.tasks()) {
    Microtask copy = task;
    if (task.id == 5) copy.features[1] += 0.25;
    perturbed.AddTask(std::move(copy));
  }
  auto restored =
      ICrowd::Restore(std::move(perturbed), config, {}, sink->bytes());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << restored.status().ToString();
}

// -------------------------------------- strategies without snapshot state --

TEST(RecoveryTest, SnapshotOfStrategyWithoutSnapshotFormIsUnimplemented) {
  // The random assigner keeps no serializable state: Snapshot() says so
  // with a Status — directly and from inside a snapshotting drive — and
  // the campaign stays usable.
  const uint64_t seed = 11;
  Dataset dataset = MakeDataset();
  std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
  auto created = ICrowd::Create(std::move(dataset),
                                MakeConfig(seed, StrategyKind::kRandomMV));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
  EXPECT_EQ(system->Snapshot().status().code(), StatusCode::kUnimplemented);
  CampaignDriverOptions options;
  options.seed = seed;
  options.snapshot_every = 5;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(system->failed());
  options.snapshot_every = 0;
  auto finished = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_TRUE(finished->finished);
}

TEST(RecoveryTest, RandomMVJournalOnlyRestoreIsBitIdentical) {
  // Without a snapshot form, recovery is journal replay: re-deriving every
  // request through the random assigner replays its draws in order, so a
  // campaign killed at any offset finishes exactly as the live run did.
  const uint64_t seed = 77;
  const ICrowdConfig config = MakeConfig(seed, StrategyKind::kRandomMV);
  LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/0,
                         /*leave_after=*/0, StrategyKind::kRandomMV);
  ASSERT_TRUE(live.finished);
  auto reference = ICrowd::Restore(MakeDataset(), config, {}, live.journal);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto live_predictions = (*reference)->Predictions();
  ASSERT_TRUE(live_predictions.ok());
  FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
  ASSERT_FALSE(scan.frames.empty());
  size_t min_offset = scan.frames[0].first + scan.frames[0].second;
  for (size_t offset = min_offset; offset <= live.journal.size();
       offset += 397) {
    std::string tag = "randommv_off" + std::to_string(offset);
    SCOPED_TRACE(tag);
    std::vector<uint8_t> prefix(
        live.journal.begin(),
        live.journal.begin() + static_cast<long>(offset));
    auto resumed = RestoreRecording(config, {}, prefix);
    ASSERT_TRUE(resumed.ok()) << tag << ": " << resumed.status().ToString();
    ICrowd* system = resumed->system.get();
    FinishLikeReference(*resumed, live, /*chunk=*/1);
    EXPECT_EQ(system->Results(), live.results) << tag;
    EXPECT_EQ(system->events_applied(), live.events) << tag;
    auto predictions = system->Predictions();
    ASSERT_TRUE(predictions.ok()) << tag;
    EXPECT_EQ(*predictions, *live_predictions) << tag;
    if (HasFailure()) {
      DumpOnFailure(live.journal, tag);
      return;
    }
  }
}

TEST(RecoveryTest, JournalOfOneStrategyIsRefusedUnderAnother) {
  // The strategy is part of the campaign fingerprint: replaying a random
  // campaign's journal through the adaptive assigner would diverge, so
  // Restore refuses it up front.
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/0,
                         /*leave_after=*/0, StrategyKind::kRandomMV);
  auto restored = ICrowd::Restore(
      MakeDataset(), MakeConfig(seed, StrategyKind::kAdapt), {}, live.journal);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << restored.status().ToString();
}

// ------------------------------------- resume-then-continue metrics parity --

TEST(RecoveryTest, ResumeThenContinueMatchesUninterruptedMetrics) {
  const uint64_t seed = 77;
  LiveRun live = RunLive(seed, /*threads=*/1);
  size_t offset = live.journal.size() * 2 / 3 + 1;  // mid-frame somewhere
  std::vector<uint8_t> prefix(
      live.journal.begin(),
      live.journal.begin() + static_cast<long>(offset));
  obs::MetricsRegistry::Global().ResetForTesting();
  auto resumed = RestoreRecording(MakeConfig(seed), {}, prefix);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  FinishLikeReference(*resumed, live, /*chunk=*/1);
  EXPECT_EQ(resumed->system->Results(), live.results);
  // Replayed prefix + re-ingested tail must count exactly what the
  // uninterrupted run counted: each event's deterministic counters fire
  // once, whichever side of the crash it landed on.
  EXPECT_EQ(obs::MetricsRegistry::Global().ExportJsonlString(
                DeterministicExport()),
            live.det_metrics);
  if (HasFailure()) DumpOnFailure(live.journal, "resume_metrics");
}

// ------------------------------------------------------ hostile journals --

/// A fresh worker arrives and is served its first warm-up task.
std::pair<WorkerId, TaskId> ArriveAndServe(ICrowd* system) {
  WorkerId worker = system->OnWorkerArrived().MoveValueOrDie();
  std::optional<TaskId> task = system->RequestTask(worker).MoveValueOrDie();
  EXPECT_TRUE(task.has_value());
  return {worker, task.value_or(kNoTaskServed)};
}

std::vector<uint8_t> EncodeJournal(const std::vector<JournalEvent>& events) {
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  for (const JournalEvent& event : events) {
    EXPECT_TRUE(writer.Append(event).ok());
  }
  return sink->bytes();
}

JournalEvent& LastOf(std::vector<JournalEvent>* events,
                     JournalEventType type) {
  auto it = std::find_if(events->rbegin(), events->rend(),
                         [type](const JournalEvent& e) {
                           return e.type == type;
                         });
  if (it == events->rend()) {
    ADD_FAILURE() << "journal has no record of the tampered type";
    return events->front();
  }
  return *it;
}

/// One hostile input: the live drive ends with `tail` (live callbacks,
/// journaled), then `tamper` appends or edits one record of the journal.
/// The re-encoded journal is CRC-valid throughout, so only replay's own
/// checks stand between the record and the restored campaign.
struct HostileJournal {
  std::string name;
  std::function<void(ICrowd*)> tail;
  std::function<void(std::vector<JournalEvent>*)> tamper;
  StatusCode expected;
};

void PrintTo(const HostileJournal& hostile, std::ostream* os) {
  *os << hostile.name;
}

class HostileJournalTest : public ::testing::TestWithParam<HostileJournal> {};

TEST_P(HostileJournalTest, RestoreRefusesRecordsTheLivePathRefuses) {
  const uint64_t seed = 11;
  const HostileJournal& hostile = GetParam();
  LiveRun run = RunLive(seed, /*threads=*/1);
  hostile.tail(run.system.get());
  auto parsed = ReadJournal(run.sink->bytes());
  ASSERT_TRUE(parsed.ok());
  std::vector<JournalEvent> events = parsed->events;
  ASSERT_EQ(EncodeJournal(events), run.sink->bytes());
  // The untampered journal restores; the tampered one must not.
  ASSERT_TRUE(ICrowd::Restore(MakeDataset(), MakeConfig(seed), {},
                              run.sink->bytes())
                  .ok());
  hostile.tamper(&events);
  std::vector<uint8_t> journal = EncodeJournal(events);
  auto restored =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, journal);
  ASSERT_FALSE(restored.ok()) << "hostile record accepted";
  EXPECT_EQ(restored.status().code(), hostile.expected)
      << restored.status().ToString();
  if (HasFailure()) DumpOnFailure(journal, "hostile_" + hostile.name);
}

INSTANTIATE_TEST_SUITE_P(
    Records, HostileJournalTest,
    ::testing::Values(
        // The live path refuses an answer for a task the worker gave back.
        HostileJournal{
            "answer_after_departure",
            [](ICrowd* system) {
              WorkerId worker = ArriveAndServe(system).first;
              ASSERT_TRUE(system->OnWorkerLeft(worker).ok());
            },
            [](std::vector<JournalEvent>* events) {
              JournalEvent answer =
                  LastOf(events, JournalEventType::kTaskRequested);
              answer.type = JournalEventType::kAnswerSubmitted;
              answer.answer = 0;
              answer.time = LastOf(events, JournalEventType::kClockTick).time;
              events->push_back(answer);
            },
            StatusCode::kFailedPrecondition},
        // The live path stamps an answer with the campaign time.
        HostileJournal{
            "answer_time_differs",
            [](ICrowd* system) {
              auto [worker, task] = ArriveAndServe(system);
              ASSERT_TRUE(system->SubmitAnswer(worker, task, 0).ok());
            },
            [](std::vector<JournalEvent>* events) {
              LastOf(events, JournalEventType::kAnswerSubmitted).time += 1.0;
            },
            StatusCode::kInternal},
        // The last request is re-attributed to a worker holding a task.
        HostileJournal{
            "request_while_holding",
            [](ICrowd* system) {
              ArriveAndServe(system);
              ArriveAndServe(system);
            },
            [](std::vector<JournalEvent>* events) {
              LastOf(events, JournalEventType::kTaskRequested).worker -= 1;
            },
            StatusCode::kFailedPrecondition},
        HostileJournal{
            "request_without_tick",
            [](ICrowd* system) {
              auto [worker, task] = ArriveAndServe(system);
              ASSERT_TRUE(system->SubmitAnswer(worker, task, 0).ok());
            },
            [](std::vector<JournalEvent>* events) {
              JournalEvent request =
                  LastOf(events, JournalEventType::kTaskRequested);
              events->push_back(request);
            },
            StatusCode::kInvalidArgument},
        HostileJournal{
            "departure_of_unknown_worker", [](ICrowd*) {},
            [](std::vector<JournalEvent>* events) {
              JournalEvent left;
              left.type = JournalEventType::kWorkerLeft;
              left.worker = 1000;
              events->push_back(left);
            },
            StatusCode::kNotFound}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(RecoveryTest, RestoreRefusesSnapshotWithInvalidHolding) {
  // A snapshot whose in-flight pair the campaign state does not back would
  // hand HeldTask() a task the worker never got — possibly out of range.
  const uint64_t seed = 11;
  LiveRun run = RunLive(seed, /*threads=*/1);
  auto [worker, task] = ArriveAndServe(run.system.get());
  std::vector<uint8_t> snapshot = run.system->Snapshot().MoveValueOrDie();
  ASSERT_TRUE(
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), snapshot, {}).ok());
  // Locate the one (worker, task) in-flight pair in the image.
  BinaryWriter pair;
  pair.I32(worker);
  pair.I32(task);
  std::vector<uint8_t> needle = pair.Release();
  auto at = std::search(snapshot.begin(), snapshot.end(), needle.begin(),
                        needle.end());
  ASSERT_NE(at, snapshot.end());
  ASSERT_EQ(std::search(at + 1, snapshot.end(), needle.begin(), needle.end()),
            snapshot.end())
      << "the in-flight pair must be unique in the snapshot image";
  const size_t offset = static_cast<size_t>(at - snapshot.begin());
  TaskId unassigned = task == 0 ? 1 : 0;
  ASSERT_FALSE(run.system->state().IsAssignedTo(unassigned, worker));
  const std::pair<WorkerId, TaskId> corruptions[] = {
      {worker, 1'000'000},     // task out of range
      {worker, unassigned},    // task never assigned to the worker
      {1'000'000, task},       // worker out of range
  };
  for (const auto& [bad_worker, bad_task] : corruptions) {
    BinaryWriter patch;
    patch.I32(bad_worker);
    patch.I32(bad_task);
    std::vector<uint8_t> bytes = patch.Release();
    std::vector<uint8_t> corrupted = snapshot;
    std::copy(bytes.begin(), bytes.end(),
              corrupted.begin() + static_cast<long>(offset));
    auto restored =
        ICrowd::Restore(MakeDataset(), MakeConfig(seed), corrupted, {});
    ASSERT_FALSE(restored.ok())
        << "holding (" << bad_worker << ", " << bad_task << ") accepted";
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
  }
}

// ---------------------------------- host checkpoints and the corpus index --
//
// A CampaignManager with a journal_dir checkpoints every file-journaled
// campaign each kCheckpointInterval journal records and keeps the corpus
// index beside the journals; OpenCampaign restores from the checkpoint plus
// the journal tail with the PPR engine from the index. Whatever the files
// hold — present, missing, stale, damaged, ahead of a torn journal — the
// reopened campaign must finish bit-identical to the uninterrupted run.

constexpr uint64_t kLongSeed = 41;
constexpr char kLongName[] = "long";

/// Enough tasks that a campaign crosses two checkpoint intervals.
Dataset MakeLongDataset() {
  EntityResolutionOptions options;
  options.tasks_per_family = 80;
  return GenerateEntityResolution(options).MoveValueOrDie();
}

struct LongReference {
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<IngestEvent> stream;
  /// records[k]: journal records once the first k stream events applied
  /// (the campaign-begin record, plus two per request: tick and request).
  std::vector<uint64_t> records;
};

LongReference RecordLongReference(uint64_t seed) {
  Dataset dataset = MakeLongDataset();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, kNumWorkers);
  ICrowdConfig config = MakeConfig(seed);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system =
      ICrowd::Create(std::move(dataset), std::move(config)).MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  LongReference reference;
  reference.journal = sink->bytes();
  reference.results = system->Results();
  auto parsed = ReadJournal(reference.journal);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return reference;
  reference.stream = IngestStreamFromJournal(parsed->events);
  reference.records.push_back(1);
  for (const IngestEvent& event : reference.stream) {
    const bool request = event.kind == IngestEventKind::kWorkerRequested;
    reference.records.push_back(reference.records.back() + (request ? 2 : 1));
  }
  EXPECT_EQ(reference.records.back(), parsed->events.size());
  return reference;
}

const LongReference& LongRun() {
  static const LongReference reference = RecordLongReference(kLongSeed);
  return reference;
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

/// Deltas of the host's recovery counters around one scope.
struct RecoveryCounters {
  static constexpr const char* kNames[] = {
      "icrowd.host.checkpoint_restores", "icrowd.host.checkpoint_fallbacks",
      "icrowd.host.index_loads", "icrowd.host.index_rebuilds",
      "icrowd.host.index_writes"};
  uint64_t start[5] = {};
  RecoveryCounters() {
    for (size_t i = 0; i < 5; ++i) start[i] = Counter(kNames[i]);
  }
  uint64_t Delta(size_t i) const { return Counter(kNames[i]) - start[i]; }
  uint64_t restores() const { return Delta(0); }
  uint64_t fallbacks() const { return Delta(1); }
  uint64_t index_loads() const { return Delta(2); }
  uint64_t index_rebuilds() const { return Delta(3); }
  uint64_t index_writes() const { return Delta(4); }
};

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/icrowd_recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string LongJournal(const std::string& dir) {
  return dir + "/shard-0/" + kLongName + ".journal";
}

std::string LongCheckpoint(const std::string& dir) {
  return dir + "/shard-0/" + kLongName + ".ckpt";
}

std::string LongIndex(const std::string& dir) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.ppr",
                static_cast<unsigned long long>(ICrowd::CorpusFingerprint(
                    MakeLongDataset(), MakeConfig(kLongSeed))));
  return dir + "/index/" + name;
}

std::unique_ptr<CampaignManager> StartHost(const std::string& dir,
                                           size_t threads = 1) {
  HostConfig host;
  host.journal_dir = dir;
  host.num_threads = threads;
  return CampaignManager::Start(host).MoveValueOrDie();
}

CampaignManager::CampaignOptions LongOptions(uint64_t seed = kLongSeed) {
  CampaignManager::CampaignOptions options;
  options.name = kLongName;
  options.dataset = MakeLongDataset();
  options.config = MakeConfig(seed);
  return options;
}

/// Submits stream[from, to) `chunk` events at a time, draining after each
/// chunk, so a checkpoint lands within one chunk of each interval boundary.
void Feed(CampaignManager* manager, CampaignHandle handle,
          const std::vector<IngestEvent>& stream, size_t from, size_t to,
          size_t chunk = 5) {
  for (size_t i = from; i < to; ++i) {
    ASSERT_TRUE(manager->SubmitEvent(handle, stream[i]).ok());
    if ((i + 1 - from) % chunk == 0 || i + 1 == to) {
      ASSERT_TRUE(manager->Drain(handle).ok());
    }
  }
}

/// Runs the reference stream's first `events` events through a fresh
/// hosted campaign under `dir`, then drops the host without closing it.
void RunAndKill(const std::string& dir, size_t events,
                uint64_t seed = kLongSeed) {
  const LongReference& reference = LongRun();
  auto manager = StartHost(dir);
  auto handle = manager->CreateCampaign(LongOptions(seed));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  Feed(manager.get(), *handle, reference.stream, 0, events);
}

/// Reopens the campaign under `dir`, finishes the reference stream from
/// wherever recovery left it, and checks results and the whole journal
/// file against the uninterrupted run. Recovery trims a torn record and an
/// orphan clock tick, so the reopened journal is exactly the reference's
/// first events_applied() records.
void ReopenAndFinish(const std::string& dir, size_t threads = 1) {
  const LongReference& reference = LongRun();
  auto manager = StartHost(dir, threads);
  auto handle = manager->OpenCampaign(LongOptions());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const ICrowd* system = manager->Inspect(*handle).MoveValueOrDie();
  auto resume = std::find(reference.records.begin(), reference.records.end(),
                          system->events_applied());
  ASSERT_NE(resume, reference.records.end())
      << "recovered at record " << system->events_applied()
      << ", not at an event boundary of the reference stream";
  auto recovered = ReadFileBytes(LongJournal(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  FrameScan scan =
      ScanFrames(reference.journal.data(), reference.journal.size());
  const size_t applied = static_cast<size_t>(system->events_applied());
  ASSERT_LE(applied, scan.frames.size());
  const size_t cut = applied < scan.frames.size()
                         ? scan.frames[applied].first - kFrameHeaderBytes
                         : reference.journal.size();
  ASSERT_EQ(recovered->size(), cut);
  EXPECT_TRUE(std::equal(recovered->begin(), recovered->end(),
                         reference.journal.begin()))
      << "the recovered journal differs from the reference prefix";

  const size_t from = static_cast<size_t>(resume - reference.records.begin());
  Feed(manager.get(), *handle, reference.stream, from,
       reference.stream.size());
  EXPECT_EQ(system->Results(), reference.results);
  manager.reset();
  auto journal = ReadFileBytes(LongJournal(dir));
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(*journal == reference.journal) << "journal bytes differ";
}

void Truncate(const std::string& path, uint64_t bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, bytes, ec);
  ASSERT_FALSE(ec) << ec.message();
}

/// The first stream position whose journal reaches `records` records.
size_t EventsForRecords(uint64_t records) {
  const LongReference& reference = LongRun();
  auto at = std::lower_bound(reference.records.begin(),
                             reference.records.end(), records);
  return static_cast<size_t>(at - reference.records.begin());
}

TEST(CheckpointRecoveryTest, KillAcrossCheckpointBoundariesIsBitIdentical) {
  const LongReference& reference = LongRun();
  ASSERT_GT(reference.records.back(), 2 * kCheckpointInterval + 64);
  enum class Keep { kBoth, kNoCheckpoint, kNoIndex, kNeither };
  for (uint64_t boundary : {kCheckpointInterval, 2 * kCheckpointInterval}) {
    for (size_t kill = EventsForRecords(boundary - 4);
         reference.records[kill] <= boundary + 4; ++kill) {
      for (Keep keep : {Keep::kBoth, Keep::kNoCheckpoint, Keep::kNoIndex,
                        Keep::kNeither}) {
        const std::string tag = "kill" + std::to_string(kill) + "_keep" +
                                std::to_string(static_cast<int>(keep));
        SCOPED_TRACE(tag);
        const std::string dir = FreshDir(tag);
        RunAndKill(dir, kill);
        const bool crossed = reference.records[kill] >= kCheckpointInterval;
        ASSERT_EQ(std::filesystem::exists(LongCheckpoint(dir)), crossed);
        ASSERT_TRUE(std::filesystem::exists(LongIndex(dir)));
        if (keep == Keep::kNoCheckpoint || keep == Keep::kNeither) {
          std::filesystem::remove(LongCheckpoint(dir));
        }
        if (keep == Keep::kNoIndex || keep == Keep::kNeither) {
          std::filesystem::remove(LongIndex(dir));
        }
        RecoveryCounters counters;
        ReopenAndFinish(dir, keep == Keep::kBoth ? 2 : 1);
        const bool use_checkpoint =
            crossed && (keep == Keep::kBoth || keep == Keep::kNoIndex);
        const bool use_index =
            keep == Keep::kBoth || keep == Keep::kNoCheckpoint;
        EXPECT_EQ(counters.restores(), use_checkpoint ? 1u : 0u);
        EXPECT_EQ(counters.fallbacks(), 0u);
        EXPECT_EQ(counters.index_loads(), use_index ? 1u : 0u);
        EXPECT_EQ(counters.index_rebuilds(), use_index ? 0u : 1u);
        // A rebuilt index is written again for the next recovery.
        EXPECT_TRUE(std::filesystem::exists(LongIndex(dir)));
        if (HasFailure()) return;
        std::filesystem::remove_all(dir);
      }
    }
  }
}

TEST(CheckpointRecoveryTest, TornKillAcrossCheckpointBoundaryIsBitIdentical) {
  // Cut the final record short: when the checkpoint was written at the
  // journal's end it now covers a record the torn journal lost, and the
  // full journal replays instead.
  const LongReference& reference = LongRun();
  const uint64_t boundary = kCheckpointInterval;
  for (size_t kill = EventsForRecords(boundary - 2);
       reference.records[kill] <= boundary + 6; ++kill) {
    const std::string tag = "torn" + std::to_string(kill);
    SCOPED_TRACE(tag);
    const std::string dir = FreshDir(tag);
    RunAndKill(dir, kill);
    const bool crossed = reference.records[kill] >= kCheckpointInterval;
    auto size = std::filesystem::file_size(LongJournal(dir));
    Truncate(LongJournal(dir), size - 3);
    RecoveryCounters counters;
    ReopenAndFinish(dir);
    EXPECT_EQ(counters.restores() + counters.fallbacks(), crossed ? 1u : 0u);
    // The recovered process's own checkpoints bind to the journal it left:
    // the next reopen restores from one and replays only the tail.
    RecoveryCounters again;
    {
      auto manager = StartHost(dir);
      auto handle = manager->OpenCampaign(LongOptions());
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      EXPECT_EQ(manager->Inspect(*handle).MoveValueOrDie()->Results(),
                reference.results);
    }
    EXPECT_EQ(again.restores(), 1u);
    EXPECT_EQ(again.fallbacks(), 0u);
    if (HasFailure()) return;
    std::filesystem::remove_all(dir);
  }
}

/// Kills the campaign past the first checkpoint, lets `damage` work on the
/// files, and expects the reopen to refuse the checkpoint (one fallback, no
/// checkpoint restore) and still finish bit-identical.
void ExpectCheckpointFallback(const std::string& tag,
                              const std::function<void(const std::string&)>&
                                  damage) {
  SCOPED_TRACE(tag);
  const std::string dir = FreshDir(tag);
  RunAndKill(dir, EventsForRecords(kCheckpointInterval + 200));
  ASSERT_TRUE(std::filesystem::exists(LongCheckpoint(dir)));
  damage(dir);
  RecoveryCounters counters;
  ReopenAndFinish(dir);
  EXPECT_EQ(counters.fallbacks(), 1u);
  EXPECT_EQ(counters.restores(), 0u);
  // The full replay reuses the engine the refused restore was given.
  EXPECT_EQ(counters.index_loads(), 1u);
  EXPECT_EQ(counters.index_rebuilds(), 0u);
  std::filesystem::remove_all(dir);
}

Checkpoint ReadLongCheckpoint(const std::string& dir) {
  auto checkpoint = ReadCheckpointFile(LongCheckpoint(dir));
  EXPECT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  return checkpoint.ok() ? checkpoint.MoveValueOrDie() : Checkpoint{};
}

TEST(CheckpointRecoveryTest, CheckpointOfAReopenedCampaignBindsOnNextReopen) {
  // A reopen checksums the journal in one pass: the prefix CRC that binds
  // the old checkpoint and the running state the new sink continues from.
  // A checkpoint written more than an interval later, from that continued
  // state, must bind on the next reopen.
  const LongReference& reference = LongRun();
  const size_t start = EventsForRecords(kCheckpointInterval + 8);
  const size_t stop = EventsForRecords(2 * kCheckpointInterval + 64);
  ASSERT_LT(stop, reference.stream.size());
  ASSERT_GT(reference.records[stop] - reference.records[start],
            kCheckpointInterval);
  const std::string dir = FreshDir("continued_crc");
  RunAndKill(dir, start);
  const Checkpoint first = ReadLongCheckpoint(dir);
  {
    RecoveryCounters counters;
    auto manager = StartHost(dir);
    auto handle = manager->OpenCampaign(LongOptions());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(counters.restores(), 1u);
    EXPECT_EQ(counters.fallbacks(), 0u);
    ASSERT_EQ(manager->Inspect(*handle).MoveValueOrDie()->events_applied(),
              reference.records[start]);
    Feed(manager.get(), *handle, reference.stream, start, stop);
  }
  const Checkpoint second = ReadLongCheckpoint(dir);
  ASSERT_GT(second.journal_offset, first.journal_offset);
  ASSERT_GE(second.events_applied, 2 * kCheckpointInterval);
  RecoveryCounters counters;
  ReopenAndFinish(dir);
  EXPECT_EQ(counters.restores(), 1u);
  EXPECT_EQ(counters.fallbacks(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRecoveryTest, StaleCheckpointOfAnEarlierIncarnationIsRefused) {
  // An earlier campaign under the same name, with another configuration
  // (so another fingerprint), left its checkpoint behind.
  const std::string earlier = FreshDir("earlier");
  RunAndKill(earlier, LongRun().stream.size(), kLongSeed + 1);
  ASSERT_TRUE(std::filesystem::exists(LongCheckpoint(earlier)));
  ExpectCheckpointFallback("stale_fingerprint", [&](const std::string& dir) {
    std::filesystem::copy_file(
        LongCheckpoint(earlier), LongCheckpoint(dir),
        std::filesystem::copy_options::overwrite_existing);
  });
  std::filesystem::remove_all(earlier);
  // Same campaign, another history: the checkpoint's journal prefix CRC
  // no longer matches the journal.
  ExpectCheckpointFallback("stale_history", [](const std::string& dir) {
    Checkpoint checkpoint = ReadLongCheckpoint(dir);
    checkpoint.journal_crc ^= 1u;
    ASSERT_TRUE(
        WriteCheckpointFile(LongCheckpoint(dir), checkpoint, false).ok());
  });
}

TEST(CheckpointRecoveryTest, CreateRemovesAnEarlierCheckpoint) {
  const std::string dir = FreshDir("recreate");
  RunAndKill(dir, EventsForRecords(kCheckpointInterval + 200));
  ASSERT_TRUE(std::filesystem::exists(LongCheckpoint(dir)));
  RunAndKill(dir, EventsForRecords(kCheckpointInterval - 200));
  EXPECT_FALSE(std::filesystem::exists(LongCheckpoint(dir)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRecoveryTest, CheckpointAheadOfTornJournalIsRefused) {
  ExpectCheckpointFallback("ahead", [](const std::string& dir) {
    Checkpoint checkpoint = ReadLongCheckpoint(dir);
    ASSERT_GT(checkpoint.journal_offset, 200u);
    Truncate(LongJournal(dir), checkpoint.journal_offset - 37);
  });
}

TEST(CheckpointRecoveryTest, DamagedCheckpointIsRefused) {
  for (double at : {0.0, 0.01, 0.5, 0.999}) {
    ExpectCheckpointFallback(
        "flip" + std::to_string(static_cast<int>(at * 1000)),
        [at](const std::string& dir) {
          auto bytes = ReadFileBytes(LongCheckpoint(dir));
          ASSERT_TRUE(bytes.ok());
          (*bytes)[static_cast<size_t>(at * static_cast<double>(
                                                bytes->size() - 1))] ^= 0x20;
          ASSERT_TRUE(WriteFileBytes(LongCheckpoint(dir), *bytes).ok());
        });
  }
  ExpectCheckpointFallback("truncated", [](const std::string& dir) {
    Truncate(LongCheckpoint(dir),
             std::filesystem::file_size(LongCheckpoint(dir)) / 2);
  });
}

TEST(CheckpointRecoveryTest, StrategiesWithoutSnapshotsSkipCheckpoints) {
  // Random assignment has no snapshot form: the host counts each skipped
  // checkpoint and the campaign recovers from its journal alone.
  const uint64_t seed = kLongSeed;
  Dataset dataset = MakeLongDataset();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, kNumWorkers);
  ICrowdConfig config = MakeConfig(seed, StrategyKind::kRandomMV);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto solo =
      ICrowd::Create(std::move(dataset), std::move(config)).MoveValueOrDie();
  CampaignDriverOptions drive;
  drive.seed = seed;
  ASSERT_TRUE(DriveCampaign(solo.get(), profiles, kNumWorkers, drive).ok());
  auto parsed = ReadJournal(sink->bytes());
  ASSERT_TRUE(parsed.ok());
  ASSERT_GT(parsed->events.size(), kCheckpointInterval);
  const std::vector<IngestEvent> stream =
      IngestStreamFromJournal(parsed->events);

  const std::string dir = FreshDir("nosnapshot");
  auto options = [seed] {
    CampaignManager::CampaignOptions o = LongOptions(seed);
    o.config.strategy = StrategyKind::kRandomMV;
    return o;
  };
  const uint64_t skipped = Counter("icrowd.host.checkpoints_skipped");
  {
    auto manager = StartHost(dir);
    auto handle = manager->CreateCampaign(options());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    Feed(manager.get(), *handle, stream, 0, stream.size());
  }
  EXPECT_GE(Counter("icrowd.host.checkpoints_skipped") - skipped, 1u);
  EXPECT_FALSE(std::filesystem::exists(LongCheckpoint(dir)));
  auto manager = StartHost(dir);
  auto handle = manager->OpenCampaign(options());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(manager->Inspect(*handle).MoveValueOrDie()->Results(),
            solo->Results());
  manager.reset();
  std::filesystem::remove_all(dir);
}

TEST(CorpusIndexTest, LoadedEngineEqualsPrecompute) {
  const std::string dir = FreshDir("index_equal");
  RunAndKill(dir, 10);
  const Dataset dataset = MakeLongDataset();
  const ICrowdConfig config = MakeConfig(kLongSeed);
  auto built = ICrowd::BuildEngine(dataset, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto loaded = ReadCorpusIndexFile(
      LongIndex(dir), ICrowd::CorpusFingerprint(dataset, config),
      dataset.size(), config.estimator.ppr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_tasks(), built->num_tasks());
  for (size_t i = 0; i < built->num_tasks(); ++i) {
    const SeedVectorView want = built->SeedVector(i);
    const SeedVectorView got = loaded->SeedVector(i);
    ASSERT_EQ(Entries(got), Entries(want)) << "seed " << i;
    // The same runs over the same value bits.
    ASSERT_EQ(got.runs().size(), want.runs().size()) << "seed " << i;
    for (size_t r = 0; r < want.runs().size(); ++r) {
      ASSERT_EQ(got.runs()[r].start, want.runs()[r].start) << "seed " << i;
      ASSERT_EQ(got.runs()[r].length, want.runs()[r].length) << "seed " << i;
    }
    ASSERT_EQ(std::memcmp(got.values().data(), want.values().data(),
                          want.size() * sizeof(double)),
              0)
        << "seed " << i;
  }
  EXPECT_EQ(loaded->seed_bytes(), built->seed_bytes());
  // Another corpus (one task less) has another fingerprint, and a file of
  // the wrong size is refused even under the right one.
  Dataset trimmed(dataset.name());
  for (size_t t = 0; t + 1 < dataset.size(); ++t) {
    trimmed.AddTask(dataset.tasks()[t]);
  }
  EXPECT_NE(ICrowd::CorpusFingerprint(trimmed, config),
            ICrowd::CorpusFingerprint(dataset, config));
  EXPECT_FALSE(ReadCorpusIndexFile(LongIndex(dir),
                                   ICrowd::CorpusFingerprint(dataset, config),
                                   trimmed.size(), config.estimator.ppr)
                   .ok());
  std::filesystem::remove_all(dir);
}

TEST(CorpusIndexTest, CorruptIndexIsRebuiltAndRewritten) {
  const std::string dir = FreshDir("index_corrupt");
  RunAndKill(dir, EventsForRecords(kCheckpointInterval + 200));
  auto original = ReadFileBytes(LongIndex(dir));
  ASSERT_TRUE(original.ok());
  std::vector<uint8_t> damaged = *original;
  damaged[damaged.size() / 3] ^= 0x08;
  ASSERT_TRUE(WriteFileBytes(LongIndex(dir), damaged).ok());
  RecoveryCounters counters;
  ReopenAndFinish(dir);
  EXPECT_EQ(counters.index_rebuilds(), 1u);
  EXPECT_EQ(counters.index_writes(), 1u);
  EXPECT_EQ(counters.index_loads(), 0u);
  // The rewrite is the same deterministic encoding the first write made.
  auto rewritten = ReadFileBytes(LongIndex(dir));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(*rewritten == *original);
  std::filesystem::remove_all(dir);
}

TEST(CorpusIndexTest, CreateReplacesAnIndexOfAnotherBuild) {
  // A CRC-valid index under the right fingerprint whose engine differs, as
  // one written by a build with other graph or PPR arithmetic would.
  const Dataset dataset = MakeLongDataset();
  ICrowdConfig other = MakeConfig(kLongSeed);
  other.graph.threshold = 0.5;
  auto other_engine = ICrowd::BuildEngine(dataset, other);
  ASSERT_TRUE(other_engine.ok()) << other_engine.status().ToString();
  const std::string reference_dir = FreshDir("index_reference");
  RunAndKill(reference_dir, 10);
  auto expected = ReadFileBytes(LongIndex(reference_dir));
  ASSERT_TRUE(expected.ok());

  const std::string dir = FreshDir("index_other_build");
  std::filesystem::create_directories(dir + "/index");
  const uint64_t fingerprint =
      ICrowd::CorpusFingerprint(dataset, MakeConfig(kLongSeed));
  ASSERT_TRUE(
      WriteCorpusIndexFile(LongIndex(dir), fingerprint, *other_engine, false)
          .ok());
  ASSERT_TRUE(ReadCorpusIndexFile(LongIndex(dir), fingerprint,
                                  dataset.size(),
                                  MakeConfig(kLongSeed).estimator.ppr)
                  .ok());
  RunAndKill(dir, EventsForRecords(kCheckpointInterval + 200));
  auto replaced = ReadFileBytes(LongIndex(dir));
  ASSERT_TRUE(replaced.ok());
  EXPECT_TRUE(*replaced == *expected);
  RecoveryCounters counters;
  ReopenAndFinish(dir);
  EXPECT_EQ(counters.index_loads(), 1u);
  EXPECT_EQ(counters.restores(), 1u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(reference_dir);
}

TEST(CorpusIndexTest, CreateAfterOpenOnAnIndexOfAnotherBuildRebuildsIt) {
  // OpenCampaign trusts an index file it finds; CreateCampaign does not
  // share what was loaded, so it builds and rewrites the index even while
  // the opened campaign holds the loaded engine.
  const Dataset dataset = MakeLongDataset();
  const uint64_t fingerprint =
      ICrowd::CorpusFingerprint(dataset, MakeConfig(kLongSeed));
  const std::string dir = FreshDir("index_open_then_create");
  RunAndKill(dir, 0);
  auto expected = ReadFileBytes(LongIndex(dir));
  ASSERT_TRUE(expected.ok());
  ICrowdConfig other = MakeConfig(kLongSeed);
  other.graph.threshold = 0.5;
  auto other_engine = ICrowd::BuildEngine(dataset, other);
  ASSERT_TRUE(other_engine.ok()) << other_engine.status().ToString();
  ASSERT_TRUE(
      WriteCorpusIndexFile(LongIndex(dir), fingerprint, *other_engine, false)
          .ok());

  auto manager = StartHost(dir);
  RecoveryCounters opened;
  auto handle = manager->OpenCampaign(LongOptions());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(opened.index_loads(), 1u);
  RecoveryCounters created;
  const uint64_t seeds = Counter("icrowd.ppr.seeds_solved");
  const uint64_t shares = Counter("icrowd.host.engine_shares");
  CampaignManager::CampaignOptions options = LongOptions(kLongSeed + 1);
  options.name = "second";
  ASSERT_TRUE(manager->CreateCampaign(std::move(options)).ok());
  EXPECT_EQ(Counter("icrowd.ppr.seeds_solved") - seeds, dataset.size());
  EXPECT_EQ(Counter("icrowd.host.engine_shares") - shares, 0u);
  EXPECT_EQ(created.index_writes(), 1u);
  auto rewritten = ReadFileBytes(LongIndex(dir));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(*rewritten == *expected);
  manager.reset();
  std::filesystem::remove_all(dir);
}

TEST(EngineSharingTest, SecondCampaignOutlivesTheFirstAndReopensBitIdentical) {
  // Two campaigns on one corpus share the engine; closing the one that
  // built it leaves the other serving, checkpointing and recovering as if
  // it had been alone.
  const LongReference& reference = LongRun();
  const std::string dir = FreshDir("shared_engine");
  {
    auto manager = StartHost(dir);
    CampaignManager::CampaignOptions options = LongOptions(kLongSeed + 1);
    options.name = "first";
    auto first = manager->CreateCampaign(std::move(options));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const uint64_t seeds = Counter("icrowd.ppr.seeds_solved");
    auto handle = manager->CreateCampaign(LongOptions());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(Counter("icrowd.ppr.seeds_solved") - seeds, 0u);
    ASSERT_TRUE(manager->CloseCampaign(*first).ok());
    EXPECT_NE(manager->RenderCampaignMetrics().find("icrowd_host_corpora 1\n"),
              std::string::npos);
    Feed(manager.get(), *handle, reference.stream, 0,
         EventsForRecords(kCheckpointInterval + 200));
  }
  ASSERT_TRUE(std::filesystem::exists(LongCheckpoint(dir)));
  RecoveryCounters counters;
  ReopenAndFinish(dir);
  EXPECT_EQ(counters.restores(), 1u);
  EXPECT_EQ(counters.index_loads(), 1u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- journal corruption --

TEST(JournalCorruptionTest, FlipInEveryFrameFailsLoudlyOrTrimsTheTornTail) {
  // One flipped byte per frame of a recorded journal, cycling through
  // header and payload positions. Damage followed by an intact frame is
  // mid-log corruption: OpenCampaign returns DataLoss and the file stays
  // byte-identical. Only the final frame reads as a torn tail and is cut.
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*threads=*/1);
  FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
  ASSERT_GT(scan.frames.size(), 2u);
  const std::string dir = FreshDir("matrix");
  const std::string path = dir + "/shard-0/m.journal";
  std::filesystem::create_directories(dir + "/shard-0");
  auto manager = StartHost(dir);
  for (size_t k = 0; k < scan.frames.size(); ++k) {
    SCOPED_TRACE("frame " + std::to_string(k));
    const size_t start = scan.frames[k].first - kFrameHeaderBytes;
    const size_t length = kFrameHeaderBytes + scan.frames[k].second;
    std::vector<uint8_t> damaged = live.journal;
    damaged[start + k % length] ^= 0x01;
    ASSERT_TRUE(WriteFileBytes(path, damaged).ok());
    CampaignManager::CampaignOptions options;
    options.name = "m";
    options.dataset = MakeDataset();
    options.config = MakeConfig(seed);
    auto handle = manager->OpenCampaign(std::move(options));
    auto on_disk = ReadFileBytes(path);
    ASSERT_TRUE(on_disk.ok());
    if (k + 1 < scan.frames.size()) {
      ASSERT_FALSE(handle.ok());
      EXPECT_EQ(handle.status().code(), StatusCode::kDataLoss)
          << handle.status().ToString();
      EXPECT_TRUE(*on_disk == damaged) << "the damaged journal was modified";
    } else {
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      EXPECT_EQ(on_disk->size(), start);
      ASSERT_TRUE(manager->CloseCampaign(*handle).ok());
    }
    if (HasFailure()) {
      DumpOnFailure(damaged, "matrix_frame" + std::to_string(k));
      return;
    }
  }
  manager.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------- recovery file mutation fuzz --
//
// Seeded mutations of valid .ckpt and .ppr streams: byte flips,
// truncations and length-word edits must come back as a Status (the CRC
// frames catch them all), and mutations of the decoded content re-framed
// with valid CRCs must come back as a Status or a value the decoder
// checked — never a crash. CI runs these under ASan and UBSan.

constexpr size_t kFuzzFrameBytes = 256;
constexpr int kFuzzCases = 200;

std::vector<uint8_t> Frame(const std::function<Status(FrameStreamWriter*)>& body) {
  std::vector<uint8_t> out;
  FrameStreamWriter writer(
      [&out](const uint8_t* data, size_t size) {
        out.insert(out.end(), data, data + size);
        return Status::OK();
      },
      kFuzzFrameBytes);
  EXPECT_TRUE(body(&writer).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out;
}

/// The logical bytes of a framed stream (its payloads, concatenated).
std::vector<uint8_t> Unframe(const std::vector<uint8_t>& stream) {
  std::vector<uint8_t> logical;
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  for (const auto& [offset, length] : scan.frames) {
    logical.insert(logical.end(), stream.begin() + static_cast<long>(offset),
                   stream.begin() + static_cast<long>(offset + length));
  }
  return logical;
}

std::vector<uint8_t> Reframe(const std::vector<uint8_t>& logical) {
  return Frame([&logical](FrameStreamWriter* out) {
    return out->Write(logical.data(), logical.size());
  });
}

/// One framing-level mutation: a byte flip, a truncation, or an edit of
/// some frame's length word.
std::vector<uint8_t> MutateFrames(const std::vector<uint8_t>& stream,
                                  Rng* rng) {
  std::vector<uint8_t> out = stream;
  const auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  switch (rng->UniformInt(0, 2)) {
    case 0:
      out[pick(out.size())] ^=
          static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
      break;
    case 1:
      out.resize(pick(out.size()));
      break;
    default: {
      FrameScan scan = ScanFrames(stream.data(), stream.size());
      const size_t header =
          scan.frames[pick(scan.frames.size())].first - kFrameHeaderBytes;
      const uint32_t old_length = BinaryReader(out.data() + header, 4).U32();
      const uint32_t edits[] = {0u, old_length + 1, old_length - 1,
                                0xFFFFFFFFu,
                                static_cast<uint32_t>(rng->UniformInt(
                                    1, 4 * kFuzzFrameBytes))};
      uint32_t length = edits[pick(5)];
      if (length == old_length) length ^= 0x100;
      for (int b = 0; b < 4; ++b) {
        out[header + static_cast<size_t>(b)] =
            static_cast<uint8_t>(length >> (8 * b));
      }
      break;
    }
  }
  return out;
}

/// One content-level mutation of the logical bytes: overwrite a run of
/// bytes with random or extreme values, or cut/extend the stream.
std::vector<uint8_t> MutateContent(const std::vector<uint8_t>& logical,
                                   Rng* rng) {
  std::vector<uint8_t> out = logical;
  const size_t at = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(out.size()) - 1));
  switch (rng->UniformInt(0, 3)) {
    case 0:
      out[at] = static_cast<uint8_t>(rng->UniformInt(0, 255));
      break;
    case 1:
      for (size_t i = at; i < std::min(out.size(), at + 8); ++i) out[i] = 0xFF;
      break;
    case 2:
      for (size_t i = at; i < std::min(out.size(), at + 8); ++i) out[i] = 0;
      break;
    default:
      out.resize(at + static_cast<size_t>(rng->UniformInt(0, 16)), 0x7F);
      break;
  }
  return out;
}

template <typename Decode>
Status DecodeBytes(const std::vector<uint8_t>& bytes, const Decode& decode) {
  FrameStreamReader reader(MemorySource(bytes.data(), bytes.size()),
                           bytes.size(), kFuzzFrameBytes);
  return decode(&reader).status();
}

TEST(RecoveryFileFuzzTest, CheckpointDecoderRefusesEveryMutation) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*threads=*/1, /*snapshot_every=*/40);
  ASSERT_FALSE(live.snapshots.empty());
  Checkpoint checkpoint;
  checkpoint.fingerprint = live.system->fingerprint();
  checkpoint.events_applied = live.snapshots.back().events_applied;
  checkpoint.journal_offset = live.journal.size();
  checkpoint.journal_crc = 0x12345678u;
  checkpoint.snapshot = live.snapshots.back().bytes;
  const std::vector<uint8_t> stream = Frame([&](FrameStreamWriter* out) {
    return EncodeCheckpoint(checkpoint, out);
  });
  ASSERT_TRUE(DecodeBytes(stream, DecodeCheckpoint).ok());
  Rng rng(20261018);
  for (int i = 0; i < kFuzzCases; ++i) {
    std::vector<uint8_t> mutated = MutateFrames(stream, &rng);
    EXPECT_FALSE(DecodeBytes(mutated, DecodeCheckpoint).ok()) << "case " << i;
  }
  // CRC-valid hostile content: whatever decodes is then handed to Restore,
  // which must refuse or accept it with a Status — the snapshot reader is
  // the last line.
  const std::vector<uint8_t> logical = Unframe(stream);
  for (int i = 0; i < kFuzzCases; ++i) {
    std::vector<uint8_t> mutated = Reframe(MutateContent(logical, &rng));
    FrameStreamReader reader(MemorySource(mutated.data(), mutated.size()),
                             mutated.size(), kFuzzFrameBytes);
    auto decoded = DecodeCheckpoint(&reader);
    if (!decoded.ok()) continue;
    auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed),
                                    decoded->snapshot, live.journal);
    (void)restored.ok();
  }
}

TEST(RecoveryFileFuzzTest, CorpusIndexDecoderRefusesEveryMutation) {
  SimilarityGraph graph = GenerateRandomBoundedGraph(40, 5, /*seed=*/9);
  PprOptions options;
  auto engine = PprEngine::Precompute(graph, options);
  ASSERT_TRUE(engine.ok());
  const uint64_t fingerprint = 0xC0FFEEull;
  const auto decode = [&](FrameStreamReader* in) {
    return DecodeCorpusIndex(in, fingerprint, 40, options);
  };
  const std::vector<uint8_t> stream = Frame([&](FrameStreamWriter* out) {
    return EncodeCorpusIndex(fingerprint, *engine, out);
  });
  ASSERT_TRUE(DecodeBytes(stream, decode).ok());
  Rng rng(61);
  for (int i = 0; i < kFuzzCases; ++i) {
    std::vector<uint8_t> mutated = MutateFrames(stream, &rng);
    EXPECT_FALSE(DecodeBytes(mutated, decode).ok()) << "case " << i;
  }
  // CRC-valid hostile content must be refused by the decoder's checks or
  // yield an engine whose seed vectors keep their documented invariants.
  const std::vector<uint8_t> logical = Unframe(stream);
  const double restart = options.alpha / (1.0 + options.alpha);
  for (int i = 0; i < kFuzzCases; ++i) {
    std::vector<uint8_t> mutated = Reframe(MutateContent(logical, &rng));
    FrameStreamReader reader(MemorySource(mutated.data(), mutated.size()),
                             mutated.size(), kFuzzFrameBytes);
    auto decoded = decode(&reader);
    if (!decoded.ok()) continue;
    for (size_t s = 0; s < decoded->num_tasks(); ++s) {
      const SparseEntries seed = Entries(decoded->SeedVector(s));
      auto self = std::find_if(seed.begin(), seed.end(), [s](const auto& e) {
        return e.first == static_cast<int32_t>(s);
      });
      ASSERT_NE(self, seed.end()) << "case " << i << " seed " << s;
      EXPECT_GE(self->second, restart);
      for (const auto& [id, value] : seed) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 40);
        EXPECT_GT(value, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace icrowd
