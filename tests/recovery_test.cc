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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
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
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), config, MakeHost(threads))
                    .MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  options.snapshot_every = snapshot_every;
  options.leave_after = leave_after;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  LiveRun run;
  if (outcome.ok()) {
    run.finished = outcome->finished;
    run.snapshots = std::move(outcome->snapshots);
  } else {
    ADD_FAILURE() << "live drive failed: " << outcome.status().ToString();
  }
  run.journal = sink->bytes();
  run.results = system->Results();
  run.events = system->events_applied();
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
  for (uint64_t seed : {11u, 77u}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      LiveRun live = RunLive(seed, threads);
      ASSERT_TRUE(live.finished);
      auto parsed = ReadJournal(live.journal);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const std::vector<JournalEvent>& events = parsed->events;
      FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
      ASSERT_FALSE(scan.frames.empty());
      // Restore needs at least the campaign-begin frame; past that, every
      // truncation point must recover. The prime stride hits mid-header,
      // mid-payload and boundary phases across the sweep.
      size_t min_offset = scan.frames[0].first + scan.frames[0].second;
      for (size_t offset = min_offset; offset <= live.journal.size();
           offset += 199) {
        std::string tag = "kill_seed" + std::to_string(seed) + "_t" +
                          std::to_string(threads) + "_off" +
                          std::to_string(offset);
        std::vector<uint8_t> prefix(
            live.journal.begin(),
            live.journal.begin() + static_cast<long>(offset));
        auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed), {},
                                        prefix, MakeHost(threads));
        ASSERT_TRUE(restored.ok())
            << tag << ": " << restored.status().ToString();
        std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
        // Finish the reference run: feed the journal tail back through the
        // public API, verifying each re-derived decision against the
        // journal on the way.
        Status redriven = RedriveJournalTail(
            system.get(), events,
            static_cast<size_t>(system->events_applied()));
        EXPECT_TRUE(redriven.ok()) << tag << ": " << redriven.ToString();
        EXPECT_EQ(system->Results(), live.results) << tag;
        EXPECT_EQ(system->events_applied(), live.events) << tag;
        if (HasFailure()) {
          DumpOnFailure(live.journal, tag);
          return;
        }
      }
    }
  }
}

// ------------------------------------------------- kill-mid-batch recovery --

TEST(RecoveryTest, KillMidBatchRecoversThroughBatchedReingest) {
  // The batched path defers the journal flush to the batch end, so a crash
  // can now land anywhere inside a batch's worth of appended-but-unflushed
  // records. Whatever prefix reached storage, recovery plus a *batched*
  // re-ingest of the lost tail must converge on the per-event reference —
  // including re-writing, byte for byte, the journal suffix the crash ate.
  for (uint64_t seed : {11u, 77u}) {
    LiveRun live = RunLive(seed, /*threads=*/1);
    ASSERT_TRUE(live.finished);
    auto parsed = ReadJournal(live.journal);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::vector<JournalEvent>& events = parsed->events;
    FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
    ASSERT_FALSE(scan.frames.empty());
    size_t min_offset = scan.frames[0].first + scan.frames[0].second;
    // Prime stride ≠ the per-event sweep's, so the two tests cut the
    // journal at different header/payload/boundary phases.
    for (size_t offset = min_offset; offset <= live.journal.size();
         offset += 173) {
      std::string tag = "killbatch_seed" + std::to_string(seed) + "_off" +
                        std::to_string(offset);
      std::vector<uint8_t> prefix(
          live.journal.begin(),
          live.journal.begin() + static_cast<long>(offset));
      ICrowdConfig config = MakeConfig(seed);
      auto tail_sink = std::make_shared<VectorSink>();
      config.journal_sink = tail_sink;
      auto restored = ICrowd::Restore(MakeDataset(), config, {}, prefix);
      ASSERT_TRUE(restored.ok())
          << tag << ": " << restored.status().ToString();
      std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
      size_t from = static_cast<size_t>(system->events_applied());
      // Finish the run through the batched API in mid-sized chunks.
      std::vector<IngestEvent> remaining =
          IngestStreamFromJournal(events, from);
      constexpr size_t kBatch = 7;
      for (size_t start = 0; start < remaining.size(); start += kBatch) {
        size_t end = std::min(start + kBatch, remaining.size());
        std::vector<IngestEvent> chunk(
            remaining.begin() + static_cast<long>(start),
            remaining.begin() + static_cast<long>(end));
        auto outcomes = system->ApplyEventBatch(chunk);
        ASSERT_TRUE(outcomes.ok())
            << tag << ": " << outcomes.status().ToString();
        for (const IngestOutcome& outcome : *outcomes) {
          EXPECT_TRUE(outcome.status.ok())
              << tag << ": " << outcome.status.ToString();
        }
      }
      EXPECT_EQ(system->Results(), live.results) << tag;
      EXPECT_EQ(system->events_applied(), live.events) << tag;
      // The re-ingested tail journals exactly the bytes the crash lost:
      // the suffix starting at the first non-replayed frame.
      ASSERT_LE(from, scan.frames.size()) << tag;
      // frames[] holds payload offsets; back up over the frame header to
      // land on the frame boundary.
      size_t tail_start = from < scan.frames.size()
                              ? scan.frames[from].first - kFrameHeaderBytes
                              : live.journal.size();
      std::vector<uint8_t> expected_tail(
          live.journal.begin() + static_cast<long>(tail_start),
          live.journal.end());
      EXPECT_EQ(tail_sink->bytes(), expected_tail) << tag;
      if (HasFailure()) {
        DumpOnFailure(live.journal, tag);
        return;
      }
    }
  }
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
  auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed),
                                  snapshot.bytes, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->events_applied(), snapshot.events_applied);
  // Finishing from the snapshot position must land on the reference run.
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  Status redriven = RedriveJournalTail(
      restored->get(), full->events,
      static_cast<size_t>((*restored)->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ((*restored)->Results(), live.results);
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

  // A final record cut mid-frame: the lost event is re-derived by redrive.
  std::vector<uint8_t> cut(live.journal.begin(), live.journal.end() - 3);
  auto reopened =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, cut);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_LT((*reopened)->events_applied(), live.events);
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  Status redriven = RedriveJournalTail(
      reopened->get(), full->events,
      static_cast<size_t>((*reopened)->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ((*reopened)->Results(), live.results);
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
  auto parsed = ReadJournal(live.journal);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
  ASSERT_FALSE(scan.frames.empty());
  size_t min_offset = scan.frames[0].first + scan.frames[0].second;
  for (size_t offset = min_offset; offset <= live.journal.size();
       offset += 397) {
    std::string tag = "randommv_off" + std::to_string(offset);
    std::vector<uint8_t> prefix(
        live.journal.begin(),
        live.journal.begin() + static_cast<long>(offset));
    auto restored = ICrowd::Restore(MakeDataset(), config, {}, prefix);
    ASSERT_TRUE(restored.ok()) << tag << ": " << restored.status().ToString();
    std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
    Status redriven = RedriveJournalTail(
        system.get(), parsed->events,
        static_cast<size_t>(system->events_applied()));
    EXPECT_TRUE(redriven.ok()) << tag << ": " << redriven.ToString();
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
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  size_t offset = live.journal.size() * 2 / 3 + 1;  // mid-frame somewhere
  std::vector<uint8_t> prefix(
      live.journal.begin(),
      live.journal.begin() + static_cast<long>(offset));
  obs::MetricsRegistry::Global().ResetForTesting();
  auto restored =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
  Status redriven = RedriveJournalTail(
      system.get(), full->events,
      static_cast<size_t>(system->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ(system->Results(), live.results);
  // Replayed prefix + redriven tail must count exactly what the
  // uninterrupted run counted: each event's deterministic counters fire
  // once, whichever side of the crash it landed on.
  EXPECT_EQ(obs::MetricsRegistry::Global().ExportJsonlString(
                DeterministicExport()),
            live.det_metrics);
  if (HasFailure()) DumpOnFailure(live.journal, "resume_metrics");
}

}  // namespace
}  // namespace icrowd
