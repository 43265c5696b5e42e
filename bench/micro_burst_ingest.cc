// Burst-ingest microbench (DESIGN.md §12): the same recorded event stream
// replayed against a durably-journaled campaign (FileSink with
// fsync_on_flush) per event — one ApplyEventBatch({e}) each — and through a
// 1-shard CampaignManager, the served ingest path, at several batch
// ceilings under Poisson-burst arrivals. The producer submits a burst and
// acks it with one Drain, so the shard coalesces each burst into batches
// of up to max_batch and pays one journal flush per batch instead of one
// per event; the headline metric is speedup_batch64 (>= 1.5x on an
// fsync-bound medium is the acceptance bar). Results are checked identical
// across every variant before timing: batching must never change a
// decision.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

using namespace icrowd;         // NOLINT: bench brevity
using namespace icrowd::bench;  // NOLINT: bench brevity

namespace {

constexpr char kAckHistogram[] = "icrowd.bench.ingest_ack_seconds";
constexpr char kFlushCounter[] = "icrowd.journal.flushes";
constexpr char kBackpressureCounter[] = "icrowd.ingest.backpressure_waits";
constexpr double kMeanBurst = 16.0;

ICrowdConfig MakeConfig() {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  return config;
}

/// Bucket-wise difference of two snapshots of the same histogram, so each
/// variant's percentiles come from its own observations even though the
/// registry accumulates across the whole binary.
obs::HistogramSnapshot SnapshotDelta(const obs::HistogramSnapshot& before,
                                     const obs::HistogramSnapshot& after) {
  if (before.buckets.size() != after.buckets.size()) return after;
  obs::HistogramSnapshot delta;
  delta.bounds = after.bounds;
  delta.buckets.resize(after.buckets.size());
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
    delta.count += delta.buckets[b];
  }
  delta.sum = after.sum - before.sum;
  return delta;
}

struct VariantRun {
  bool ok = false;
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t flushes = 0;
  uint64_t backpressure_waits = 0;
  std::vector<Label> results;
};

/// Registry readings a variant's metrics are deltas against; taken after
/// campaign creation so only the timed replay counts.
struct MetricBaselines {
  obs::HistogramSnapshot ack;
  uint64_t flushes = 0;
  uint64_t backpressure_waits = 0;

  static MetricBaselines Take() {
    auto& registry = obs::MetricsRegistry::Global();
    return {registry.HistogramValue(kAckHistogram),
            registry.CounterValue(kFlushCounter),
            registry.CounterValue(kBackpressureCounter)};
  }

  void Finish(VariantRun* run) const {
    auto& registry = obs::MetricsRegistry::Global();
    obs::HistogramSnapshot acks =
        SnapshotDelta(ack, registry.HistogramValue(kAckHistogram));
    run->p50_ms = acks.Percentile(50) * 1e3;
    run->p99_ms = acks.Percentile(99) * 1e3;
    run->flushes = registry.CounterValue(kFlushCounter) - flushes;
    run->backpressure_waits =
        registry.CounterValue(kBackpressureCounter) - backpressure_waits;
  }
};

/// A fresh durable (fsync-on-flush) journal file for one variant.
std::shared_ptr<JournalSink> OpenDurableSink(const std::string& path) {
  FileSink::Options durable;
  durable.fsync_on_flush = true;
  auto sink = FileSink::Open(path, /*truncate=*/true, durable);
  if (!sink.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 sink.status().ToString().c_str());
    return nullptr;
  }
  return sink.MoveValueOrDie();
}

/// The per-event baseline: each event is applied and group-committed alone,
/// i.e. one fsync per event — the ack latency floor and throughput ceiling
/// the hosted path has to beat.
VariantRun RunPerEvent(const Dataset& dataset,
                       const std::vector<IngestEvent>& stream,
                       const obs::Histogram& ack) {
  VariantRun run;
  const std::string path = "micro_burst_per_event.tmp.journal";
  ICrowdConfig config = MakeConfig();
  config.journal_sink = OpenDurableSink(path);
  if (config.journal_sink == nullptr) return run;
  auto created = ICrowd::Create(dataset, config);
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return run;
  }
  std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
  const MetricBaselines baselines = MetricBaselines::Take();
  Stopwatch watch;
  for (const IngestEvent& event : stream) {
    Stopwatch per_event;
    auto outcomes = system->ApplyEventBatch({event});
    if (!outcomes.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   outcomes.status().ToString().c_str());
      return run;
    }
    ack.Observe(per_event.ElapsedSeconds());
  }
  run.wall_ms = watch.ElapsedMillis();
  baselines.Finish(&run);
  run.results = system->Results();
  run.ok = !system->failed();
  system.reset();
  std::remove(path.c_str());
  return run;
}

/// The served path: a producer fires Poisson-sized bursts into a 1-shard
/// host and acks each burst with one Drain, while the shard thread
/// coalesces whatever has queued up (up to `max_batch`) into one apply +
/// one group commit. Ack latency is submit-to-Drain-return per event.
VariantRun RunBurstIngest(const Dataset& dataset,
                          const std::vector<IngestEvent>& stream,
                          size_t max_batch, const obs::Histogram& ack,
                          uint64_t seed) {
  VariantRun run;
  const std::string path =
      "micro_burst_batch" + std::to_string(max_batch) + ".tmp.journal";
  CampaignManager::CampaignOptions options;
  options.name = "burst";
  options.dataset = dataset;
  options.config = MakeConfig();
  options.config.journal_sink = OpenDurableSink(path);
  if (options.config.journal_sink == nullptr) return run;
  HostConfig host;
  host.max_batch = max_batch;
  host.queue_capacity = 256;
  auto started = CampaignManager::Start(host);
  if (!started.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 started.status().ToString().c_str());
    return run;
  }
  std::unique_ptr<CampaignManager> manager = started.MoveValueOrDie();
  auto handle = manager->CreateCampaign(std::move(options));
  if (!handle.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 handle.status().ToString().c_str());
    return run;
  }

  const MetricBaselines baselines = MetricBaselines::Take();
  Stopwatch watch;
  std::vector<double> submit_seconds(stream.size(), 0.0);
  Rng rng(seed);
  std::poisson_distribution<int> burst_size(kMeanBurst);
  size_t next = 0;
  while (next < stream.size()) {
    size_t burst = static_cast<size_t>(std::max(1, burst_size(rng.engine())));
    burst = std::min(burst, stream.size() - next);
    const size_t first = next;
    for (size_t i = 0; i < burst; ++i, ++next) {
      submit_seconds[next] = watch.ElapsedSeconds();
      Status submitted = manager->SubmitEvent(*handle, stream[next]);
      if (!submitted.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     submitted.ToString().c_str());
        return run;
      }
    }
    Status drained = manager->Drain(*handle);
    if (!drained.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", drained.ToString().c_str());
      return run;
    }
    const double acked = watch.ElapsedSeconds();
    for (size_t k = first; k < next; ++k) {
      ack.Observe(acked - submit_seconds[k]);
    }
  }
  run.wall_ms = watch.ElapsedMillis();
  baselines.Finish(&run);
  run.results = (*manager->Inspect(*handle))->Results();
  run.ok = manager->CloseCampaign(*handle).ok();
  manager.reset();
  std::remove(path.c_str());
  return run;
}

}  // namespace

ICROWD_BENCH("micro_burst_ingest") {
  EntityResolutionOptions data_options;
  data_options.tasks_per_family = ctx.smoke() ? 5 : 15;
  Dataset dataset = GenerateEntityResolution(data_options).MoveValueOrDie();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, ctx.smoke() ? 8 : 16);

  // Record the canonical stream: a per-event reference campaign whose
  // journal IS the event sequence every variant below replays.
  ICrowdConfig config = MakeConfig();
  auto recording = std::make_shared<VectorSink>();
  config.journal_sink = recording;
  auto reference = ICrowd::Create(dataset, config).MoveValueOrDie();
  CampaignDriverOptions drive_options;
  drive_options.seed = 7;
  auto outcome =
      DriveCampaign(reference.get(), profiles, profiles.size(), drive_options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "reference drive failed: %s\n",
                 outcome.status().ToString().c_str());
    return;
  }
  auto parsed = ReadJournal(recording->bytes());
  if (!parsed.ok()) {
    std::fprintf(stderr, "journal parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return;
  }
  std::vector<IngestEvent> stream = IngestStreamFromJournal(parsed->events);
  std::vector<Label> expected = reference->Results();
  reference.reset();

  const obs::Histogram ack = obs::MetricsRegistry::Global().GetHistogram(
      kAckHistogram, obs::ExponentialBuckets(1e-6, 2, 26),
      {false, "submit-to-durable-ack latency per ingested event"});

  VariantRun per_event = RunPerEvent(dataset, stream, ack);
  const size_t batch_sizes[] = {1, 8, 64};
  std::vector<VariantRun> batched;
  for (size_t max_batch : batch_sizes) {
    batched.push_back(
        RunBurstIngest(dataset, stream, max_batch, ack, 7 + max_batch));
  }

  // Batching must be invisible to the campaign's decisions (the same
  // invariant tests/ingest_test.cc proves bit-exactly).
  if (!per_event.ok || per_event.results != expected) {
    std::fprintf(stderr, "FATAL: per-event replay diverged from reference\n");
    return;
  }
  for (size_t v = 0; v < batched.size(); ++v) {
    if (!batched[v].ok || batched[v].results != expected) {
      std::fprintf(stderr,
                   "FATAL: batched replay (max_batch=%zu) diverged\n",
                   batch_sizes[v]);
      return;
    }
  }

  const double events = static_cast<double>(stream.size());
  auto throughput = [events](const VariantRun& run) {
    return run.wall_ms > 0.0 ? events / (run.wall_ms / 1e3) : 0.0;
  };

  ctx.AddIterations(stream.size() * (1 + batched.size()));
  ctx.ReportMetric("stream_events", events);
  ctx.ReportMetric("per_event_events_per_sec", throughput(per_event));
  ctx.ReportMetric("per_event_ack_p50_ms", per_event.p50_ms);
  ctx.ReportMetric("per_event_ack_p99_ms", per_event.p99_ms);
  ctx.ReportMetric("per_event_flushes", static_cast<double>(per_event.flushes));

  Series& sweep = ctx.AddSeries("burst_sweep");
  for (size_t v = 0; v < batched.size(); ++v) {
    const VariantRun& run = batched[v];
    std::string prefix = "batch" + std::to_string(batch_sizes[v]);
    ctx.ReportMetric(prefix + "_events_per_sec", throughput(run));
    ctx.ReportMetric(prefix + "_ack_p50_ms", run.p50_ms);
    ctx.ReportMetric(prefix + "_ack_p99_ms", run.p99_ms);
    ctx.ReportMetric(prefix + "_flushes", static_cast<double>(run.flushes));
    sweep.points.push_back(
        {{{"max_batch", static_cast<double>(batch_sizes[v])},
          {"events_per_sec", throughput(run)},
          {"ack_p99_ms", run.p99_ms},
          {"flushes", static_cast<double>(run.flushes)},
          {"backpressure_waits",
           static_cast<double>(run.backpressure_waits)}}});
  }
  // The headline: group commit at batch<=64 vs one fsync per event.
  ctx.ReportMetric("speedup_batch64",
                   throughput(per_event) > 0.0
                       ? throughput(batched.back()) / throughput(per_event)
                       : 0.0);
}
