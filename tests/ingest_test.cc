// Batch-invariance property suite for the ingest pipeline (DESIGN.md §12):
// applying a recorded event stream through the batched API — at ANY batch
// size and thread count — must be bit-identical to per-event execution:
// same assignments, same accuracy estimates, same journal bytes, same
// deterministic metrics. Plus unit tests for the bounded queue
// (backpressure, drain-on-shutdown, multi-consumer) and single-campaign
// ingest through a 1-shard CampaignManager — the one consumer loop
// (ordering, amortization, failure propagation, stage histograms).

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "ingest/event_queue.h"
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

ICrowdConfig MakeConfig(uint64_t seed) {
  ICrowdConfig config;
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

/// Every estimate the campaign holds, as raw doubles: the "accuracy
/// estimates are bit-identical" leg of the invariance contract.
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

struct RunCapture {
  bool finished = false;
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<double> accuracies;
  uint64_t events = 0;
  std::string det_metrics;
};

/// The per-event reference: a driven campaign through the one-at-a-time
/// calls. Its journal doubles as the canonical event stream the batched
/// reruns consume.
RunCapture RunPerEvent(uint64_t seed, size_t threads, int leave_after = 0) {
  obs::MetricsRegistry::Global().ResetForTesting();
  Dataset dataset = MakeDataset();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, kNumWorkers);
  ICrowdConfig config = MakeConfig(seed);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), config, MakeHost(threads))
                    .MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  options.leave_after = leave_after;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  RunCapture run;
  if (outcome.ok()) {
    run.finished = outcome->finished;
  } else {
    ADD_FAILURE() << "reference drive failed: " << outcome.status().ToString();
  }
  run.journal = sink->bytes();
  run.results = system->Results();
  run.accuracies = AccuracyGrid(*system);
  run.events = system->events_applied();
  run.det_metrics =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());
  return run;
}

std::vector<IngestEvent> StreamOf(const RunCapture& reference) {
  auto parsed = ReadJournal(reference.journal);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return IngestStreamFromJournal(parsed->events);
}

/// Re-applies `stream` on a fresh campaign through ApplyEventBatch in
/// chunks of `batch_size` (0 = the whole stream as one batch).
RunCapture RunBatched(const std::vector<IngestEvent>& stream, uint64_t seed,
                      size_t threads, size_t batch_size) {
  obs::MetricsRegistry::Global().ResetForTesting();
  ICrowdConfig config = MakeConfig(seed);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(MakeDataset(), config, MakeHost(threads))
                    .MoveValueOrDie();
  if (batch_size == 0) batch_size = stream.size() + 1;
  size_t applied = 0;
  for (size_t start = 0; start < stream.size(); start += batch_size) {
    size_t end = std::min(start + batch_size, stream.size());
    std::vector<IngestEvent> chunk(stream.begin() + start,
                                   stream.begin() + end);
    auto outcomes = system->ApplyEventBatch(chunk);
    EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    if (!outcomes.ok()) break;
    applied += outcomes->size();
    for (const IngestOutcome& outcome : *outcomes) {
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    }
  }
  EXPECT_EQ(applied, stream.size());
  RunCapture run;
  run.finished = system->Finished();
  run.journal = sink->bytes();
  run.results = system->Results();
  run.accuracies = AccuracyGrid(*system);
  run.events = system->events_applied();
  run.det_metrics =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());
  return run;
}

/// Single-campaign ingest is a 1-shard CampaignManager; the campaign
/// journals to the host's in-memory sink unless `config` names one.
struct OneShardHost {
  std::unique_ptr<CampaignManager> manager;
  CampaignHandle handle;
};

OneShardHost StartOneShardHost(HostConfig host, ICrowdConfig config) {
  host.num_shards = 1;
  OneShardHost out;
  out.manager = CampaignManager::Start(host).MoveValueOrDie();
  CampaignManager::CampaignOptions options;
  options.name = "solo";
  options.dataset = MakeDataset();
  options.config = std::move(config);
  out.handle =
      out.manager->CreateCampaign(std::move(options)).MoveValueOrDie();
  return out;
}

// --------------------------------------------------- batch invariance suite --

TEST(IngestInvarianceTest, AnyBatchSizeIsBitIdenticalToPerEvent) {
  for (uint64_t seed : {11u, 77u}) {
    // leave_after puts kWorkerLeft events in the stream for one seed.
    int leave_after = seed == 77u ? 20 : 0;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      RunCapture reference = RunPerEvent(seed, threads, leave_after);
      std::vector<IngestEvent> stream = StreamOf(reference);
      ASSERT_FALSE(stream.empty());
      // 0 = the whole stream in a single batch.
      for (size_t batch_size : {size_t{1}, size_t{2}, size_t{7}, size_t{64},
                                size_t{0}}) {
        std::string tag = "seed" + std::to_string(seed) + "_t" +
                          std::to_string(threads) + "_b" +
                          std::to_string(batch_size);
        RunCapture batched = RunBatched(stream, seed, threads, batch_size);
        EXPECT_EQ(batched.journal, reference.journal) << tag;
        EXPECT_EQ(batched.results, reference.results) << tag;
        EXPECT_EQ(batched.accuracies, reference.accuracies) << tag;
        EXPECT_EQ(batched.events, reference.events) << tag;
        EXPECT_EQ(batched.det_metrics, reference.det_metrics) << tag;
        EXPECT_EQ(batched.finished, reference.finished) << tag;
        if (HasFailure()) return;
      }
    }
  }
}

TEST(IngestInvarianceTest, GroupCommitFlushesOncePerBatchForSameBytes) {
  RunCapture reference = RunPerEvent(11, 1);
  std::vector<IngestEvent> stream = StreamOf(reference);
  // Per-event execution flushes once per answer (plus the begin record);
  // one whole-stream batch flushes once. Bytes must not care.
  obs::MetricsRegistry::Global().ResetForTesting();
  RunCapture batched = RunBatched(stream, 11, 1, /*batch_size=*/0);
  EXPECT_EQ(batched.journal, reference.journal);
  uint64_t flushes =
      obs::MetricsRegistry::Global().CounterValue("icrowd.journal.flushes");
  // Create's begin-record flush + one group commit.
  EXPECT_EQ(flushes, 2u);
}

TEST(IngestInvarianceTest, RecoverableEventErrorsRideInOutcomes) {
  auto system = ICrowd::Create(MakeDataset(), MakeConfig(11))
                    .MoveValueOrDie();
  std::vector<IngestEvent> batch = {
      IngestEvent::Arrived(),
      // Recoverable: worker 0 holds nothing yet.
      IngestEvent::Answered(0, 0, kNo),
      // Recoverable: worker 99 never arrived.
      IngestEvent::Requested(99),
      IngestEvent::Requested(0),
  };
  auto outcomes = system->ApplyEventBatch(batch);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 4u);
  EXPECT_TRUE((*outcomes)[0].status.ok());
  EXPECT_EQ((*outcomes)[0].worker, 0);
  EXPECT_EQ((*outcomes)[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*outcomes)[2].status.code(), StatusCode::kNotFound);
  // The batch carried on past the bad events: the real request was served.
  EXPECT_TRUE((*outcomes)[3].status.ok());
  EXPECT_NE((*outcomes)[3].task, kNoTaskServed);
  EXPECT_FALSE(system->failed());
}

TEST(IngestInvarianceTest, DrainWithoutSubmitsIsEmpty) {
  OneShardHost solo = StartOneShardHost(HostConfig{}, MakeConfig(11));
  ASSERT_TRUE(solo.manager->Drain(solo.handle).ok());
  const ICrowd* system = solo.manager->Inspect(solo.handle).MoveValueOrDie();
  // Only the campaign-begin record: nothing was applied.
  EXPECT_EQ(system->events_applied(), 1u);
  EXPECT_EQ(system->state().num_workers(), 0u);
}

TEST(IngestInvarianceTest, PoisonedCampaignRefusesSubmitEvent) {
  ICrowdConfig config = MakeConfig(11);
  auto inner = std::make_shared<VectorSink>();
  // Enough budget for the begin record, then die.
  auto faulty = std::make_shared<FaultInjectingSink>(inner, 64);
  config.journal_sink = faulty;
  auto system = ICrowd::Create(MakeDataset(), config).MoveValueOrDie();
  std::vector<IngestEvent> batch(
      20, IngestEvent::Arrived());
  auto outcomes = system->ApplyEventBatch(batch);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_TRUE(system->failed());
  EXPECT_EQ(system->ApplyEventBatch({IngestEvent::Arrived()}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(system->ApplyEventBatch({}).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- bounded queue unit --

TEST(BoundedEventQueueTest, PopBatchRespectsMaxAndOrder) {
  BoundedEventQueue queue(/*capacity=*/16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.Push(IngestEvent::Requested(i)));
  }
  EXPECT_EQ(queue.depth(), 10u);
  std::vector<IngestEvent> out;
  EXPECT_EQ(queue.PopBatch(&out, 4), 4u);
  EXPECT_EQ(queue.PopBatch(&out, 100), 6u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].worker, i);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.events_pushed(), 10u);
  EXPECT_EQ(queue.events_popped(), 10u);
}

TEST(BoundedEventQueueTest, BackpressureBlocksProducerUntilPop) {
  BoundedEventQueue queue(/*capacity=*/2);
  ASSERT_TRUE(queue.Push(IngestEvent::Requested(0)));
  ASSERT_TRUE(queue.Push(IngestEvent::Requested(1)));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(IngestEvent::Requested(2)));
    third_pushed.store(true);
  });
  // The producer must be blocked: the queue is full. (A scheduling stall
  // could false-pass this check, never false-fail it.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(queue.depth(), 2u);
  std::vector<IngestEvent> out;
  EXPECT_EQ(queue.PopBatch(&out, 1), 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.backpressure_waits(), 1u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(BoundedEventQueueTest, CloseDrainsThenSignalsShutdown) {
  BoundedEventQueue queue(/*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Push(IngestEvent::Requested(i)));
  }
  queue.Close();
  EXPECT_TRUE(queue.closed());
  // Closed: pushes fail, queued events stay poppable.
  EXPECT_FALSE(queue.Push(IngestEvent::Requested(99)));
  std::vector<IngestEvent> out;
  EXPECT_EQ(queue.PopBatch(&out, 3), 3u);
  EXPECT_EQ(queue.PopBatch(&out, 3), 2u);
  EXPECT_EQ(queue.PopBatch(&out, 3), 0u);  // drained: shutdown signal
  EXPECT_EQ(queue.PopBatch(&out, 3), 0u);  // and it stays that way
  EXPECT_EQ(out.size(), 5u);
}

TEST(BoundedEventQueueTest, CloseWakesBlockedConsumer) {
  BoundedEventQueue queue(/*capacity=*/4);
  std::atomic<size_t> got{1};
  std::thread consumer([&] {
    std::vector<IngestEvent> out;
    got.store(queue.PopBatch(&out, 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_EQ(got.load(), 0u);
}

TEST(BoundedEventQueueTest, MultiConsumerDrainsEveryEventOnce) {
  BoundedEventQueue queue(/*capacity=*/32);
  constexpr int kEvents = 500;
  std::vector<std::vector<IngestEvent>> drained(2);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<IngestEvent> out;
      while (queue.PopBatch(&out, 7) != 0) {
        drained[c].insert(drained[c].end(), out.begin(), out.end());
        out.clear();
      }
    });
  }
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(queue.Push(IngestEvent::Requested(i)));
  }
  queue.Close();
  for (std::thread& t : consumers) t.join();
  std::set<WorkerId> seen;
  for (const auto& events : drained) {
    for (const IngestEvent& e : events) {
      EXPECT_TRUE(seen.insert(e.worker).second)
          << "event " << e.worker << " popped twice";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kEvents));
}

// ------------------------------------------- single-campaign (1-shard) host --

TEST(OneShardHostTest, AsyncIngestMatchesPerEventReference) {
  RunCapture reference = RunPerEvent(11, 1);
  std::vector<IngestEvent> stream = StreamOf(reference);
  obs::MetricsRegistry::Global().ResetForTesting();
  HostConfig host;
  host.max_batch = 7;
  // Small bound so the submit loop actually hits backpressure.
  host.queue_capacity = 16;
  OneShardHost solo = StartOneShardHost(host, MakeConfig(11));
  for (const IngestEvent& event : stream) {
    ASSERT_TRUE(solo.manager->SubmitEvent(solo.handle, event).ok());
  }
  ASSERT_TRUE(solo.manager->Drain(solo.handle).ok());
  const ICrowd* system = solo.manager->Inspect(solo.handle).MoveValueOrDie();
  EXPECT_EQ(solo.manager->JournalBytes(solo.handle).MoveValueOrDie(),
            reference.journal);
  EXPECT_EQ(system->Results(), reference.results);
  EXPECT_EQ(AccuracyGrid(*system), reference.accuracies);
  EXPECT_EQ(system->events_applied(), reference.events);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.ExportJsonlString(DeterministicExport()),
            reference.det_metrics);
  // Every accepted event settled exactly once.
  std::vector<CampaignManager::CampaignStats> stats = solo.manager->Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].submitted, stream.size());
  EXPECT_EQ(stats[0].settled, stream.size());
  // Amortization: the shard coalesced events into far fewer batches.
  uint64_t batches = registry.CounterValue("icrowd.ingest.batches");
  EXPECT_LT(batches, stream.size());
  EXPECT_GE(batches, stream.size() / host.max_batch);
}

TEST(OneShardHostTest, ServedPathFillsTheStageHistograms) {
  std::vector<IngestEvent> stream = StreamOf(RunPerEvent(11, 1));
  obs::MetricsRegistry::Global().ResetForTesting();
  OneShardHost solo = StartOneShardHost(HostConfig{}, MakeConfig(11));
  for (const IngestEvent& event : stream) {
    ASSERT_TRUE(solo.manager->SubmitEvent(solo.handle, event).ok());
  }
  ASSERT_TRUE(solo.manager->Drain(solo.handle).ok());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t batches = registry.CounterValue("icrowd.ingest.batches");
  ASSERT_GT(batches, 0u);
  // Queue wait per event; assembly and size per popped batch.
  EXPECT_EQ(registry.HistogramValue("icrowd.ingest.queue_wait_seconds").count,
            stream.size());
  EXPECT_EQ(
      registry.HistogramValue("icrowd.ingest.batch_assembly_seconds").count,
      batches);
  obs::HistogramSnapshot sizes =
      registry.HistogramValue("icrowd.ingest.batch_size");
  EXPECT_EQ(sizes.count, batches);
  EXPECT_DOUBLE_EQ(sizes.sum, static_cast<double>(stream.size()));
  // Apply per campaign slice; with one campaign, one slice per batch.
  EXPECT_EQ(registry.HistogramValue("icrowd.ingest.apply_seconds").count,
            registry.CounterValue("icrowd.host.batches"));
  EXPECT_EQ(registry.CounterValue("icrowd.host.batches"), batches);
  EXPECT_EQ(registry.CounterValue("icrowd.ingest.events_applied"),
            stream.size());
  EXPECT_EQ(registry.CounterValue("icrowd.ingest.events_abandoned"), 0u);
}

TEST(OneShardHostTest, CampaignPoisoningPropagatesAndSettles) {
  ICrowdConfig config = MakeConfig(11);
  auto inner = std::make_shared<VectorSink>();
  auto faulty = std::make_shared<FaultInjectingSink>(inner, 128);
  config.journal_sink = faulty;
  HostConfig host;
  host.max_batch = 4;
  OneShardHost solo = StartOneShardHost(host, config);
  for (int i = 0; i < 64; ++i) {
    Status submitted =
        solo.manager->SubmitEvent(solo.handle, IngestEvent::Arrived());
    if (!submitted.ok()) break;
  }
  Status drained = solo.manager->Drain(solo.handle);
  EXPECT_FALSE(drained.ok());
  EXPECT_TRUE(solo.manager->Inspect(solo.handle).MoveValueOrDie()->failed());
  EXPECT_TRUE(faulty->tripped());
  std::vector<CampaignManager::CampaignStats> stats = solo.manager->Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].failed);
  EXPECT_EQ(stats[0].settled, stats[0].submitted);
  // Sticky first failure: later submits are refused with it.
  EXPECT_EQ(solo.manager->SubmitEvent(solo.handle, IngestEvent::Arrived()),
            drained);
}

TEST(OneShardHostTest, ShutdownIsIdempotentAndDrains) {
  OneShardHost solo = StartOneShardHost(HostConfig{}, MakeConfig(11));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        solo.manager->SubmitEvent(solo.handle, IngestEvent::Arrived()).ok());
  }
  solo.manager->Shutdown();
  solo.manager->Shutdown();
  // Shutdown drained everything that was submitted before it.
  EXPECT_TRUE(solo.manager->Drain(solo.handle).ok());
  const ICrowd* system = solo.manager->Inspect(solo.handle).MoveValueOrDie();
  EXPECT_EQ(system->state().num_workers(), 5u);
  EXPECT_EQ(
      solo.manager->SubmitEvent(solo.handle, IngestEvent::Arrived()).code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace icrowd
