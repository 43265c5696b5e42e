// Crash-recovery tests for durable campaigns (DESIGN.md §11): the journal +
// snapshot + tail-replay machinery must reconstruct a campaign bit-identical
// to the uninterrupted run from any kill point — a byte-offset truncation of
// the journal (the process died mid-append), a fault-injected sink (the disk
// died mid-run), a snapshot plus tail, or a snapshot newer than the tail.
//
// When a recovery expectation fails and ICROWD_RECOVERY_DUMP_DIR is set,
// the offending journal and its JSONL rendering are written there (CI
// uploads them as the failure artifact).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/binary_io.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "datagen/poi.h"
#include "ingest/event.h"
#include "io/framing.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

namespace icrowd {
namespace {

constexpr size_t kNumWorkers = 8;

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

}  // namespace
}  // namespace icrowd
