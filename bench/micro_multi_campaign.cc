// Multi-campaign host microbench (DESIGN.md §16): what does the host
// sustain per event as the shard count grows? The same recorded streams
// are replayed through one sharded CampaignManager hosting every campaign
// at once, submitted in interleaved round-robin chunks so every popped
// batch mixes campaigns (the regrouping path), at several shard counts.
// Campaign creation (graph build, PPR, qualification) is timed on its own
// and reported separately: the events/sec clock starts only after every
// CreateCampaign returned, so the throughput figures measure ingest, not
// construction. Campaign c runs on corpus c % 3, so creation splits into
// the first campaign of each corpus (which builds the PPR engine) and the
// later ones (which share it); the two are reported apart. Results are checked bit-identical against the recordings
// before any number is reported: hosting must never change a decision.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/stopwatch.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "sim/campaign_driver.h"

using namespace icrowd;         // NOLINT: bench brevity
using namespace icrowd::bench;  // NOLINT: bench brevity

namespace {

struct Recording {
  Dataset dataset;
  ICrowdConfig config;
  std::vector<IngestEvent> stream;
  std::vector<Label> expected;
};

ICrowdConfig MakeConfig(uint64_t seed) {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  return config;
}

/// Records campaign `index`'s canonical stream and expected results via a
/// driven solo run (the same structural-heterogeneity scheme the isolation
/// tests use).
constexpr size_t kCorpora = 3;

bool Record(size_t index, size_t workers, Recording* out) {
  EntityResolutionOptions data_options;
  data_options.tasks_per_family = 4 + index % kCorpora;
  out->dataset = GenerateEntityResolution(data_options).MoveValueOrDie();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(out->dataset, workers);
  out->config = MakeConfig(100 + 13 * index);
  ICrowdConfig recording_config = out->config;
  auto sink = std::make_shared<VectorSink>();
  recording_config.journal_sink = sink;
  auto system = ICrowd::Create(out->dataset, recording_config);
  if (!system.ok()) {
    std::fprintf(stderr, "record %zu: create failed: %s\n", index,
                 system.status().ToString().c_str());
    return false;
  }
  CampaignDriverOptions drive;
  drive.seed = 100 + 13 * index;
  drive.leave_after = index % 3 == 1 ? 6 : 0;
  auto outcome = DriveCampaign(system->get(), profiles, workers, drive);
  if (!outcome.ok()) {
    std::fprintf(stderr, "record %zu: drive failed: %s\n", index,
                 outcome.status().ToString().c_str());
    return false;
  }
  auto parsed = ReadJournal(sink->bytes());
  if (!parsed.ok()) {
    std::fprintf(stderr, "record %zu: journal parse failed: %s\n", index,
                 parsed.status().ToString().c_str());
    return false;
  }
  out->stream = IngestStreamFromJournal(parsed->events);
  out->expected = (*system)->Results();
  return true;
}

struct HostedRun {
  double create_seconds = 0.0;
  /// Mean CreateCampaign time of the first campaign on each corpus, and of
  /// the campaigns after it on a corpus already hosted.
  double create_first_seconds = 0.0;
  double create_shared_seconds = 0.0;
  double events_per_sec = 0.0;
};

/// The hosted path: every recording lives in one CampaignManager with
/// `shards` shards, its streams submitted in interleaved round-robin
/// chunks. Creation and ingest are timed separately. Returns a zeroed run
/// on failure.
HostedRun RunHosted(const std::vector<Recording>& recordings,
                    size_t shards) {
  HostConfig host;
  host.num_shards = shards;
  auto manager_or = CampaignManager::Start(host);
  if (!manager_or.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 manager_or.status().ToString().c_str());
    return {};
  }
  std::unique_ptr<CampaignManager> manager = manager_or.MoveValueOrDie();
  HostedRun run;
  std::vector<CampaignHandle> handles;
  uint64_t events = 0;
  for (size_t c = 0; c < recordings.size(); ++c) {
    CampaignManager::CampaignOptions options;
    options.name = "bench-" + std::to_string(c);
    options.dataset = recordings[c].dataset;
    options.config = recordings[c].config;
    Stopwatch create_watch;
    auto handle = manager->CreateCampaign(std::move(options));
    const double seconds = create_watch.ElapsedSeconds();
    run.create_seconds += seconds;
    (c < kCorpora ? run.create_first_seconds : run.create_shared_seconds) +=
        seconds;
    if (!handle.ok()) {
      std::fprintf(stderr, "hosted create %zu failed: %s\n", c,
                   handle.status().ToString().c_str());
      return {};
    }
    handles.push_back(*handle);
    events += recordings[c].stream.size();
  }
  const size_t first = std::min(recordings.size(), kCorpora);
  run.create_first_seconds /= static_cast<double>(first);
  if (recordings.size() > first) {
    run.create_shared_seconds /= static_cast<double>(recordings.size() - first);
  }

  Stopwatch watch;
  constexpr size_t kChunk = 4;
  std::vector<size_t> position(recordings.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t c = 0; c < recordings.size(); ++c) {
      size_t end = std::min(position[c] + kChunk, recordings[c].stream.size());
      for (; position[c] < end; ++position[c]) {
        if (!manager->SubmitEvent(handles[c],
                                  recordings[c].stream[position[c]])
                 .ok()) {
          return {};
        }
        progressed = true;
      }
    }
  }
  Status drained = manager->DrainAll();
  if (!drained.ok()) {
    std::fprintf(stderr, "hosted drain failed: %s\n",
                 drained.ToString().c_str());
    return {};
  }
  double seconds = watch.ElapsedSeconds();
  for (size_t c = 0; c < recordings.size(); ++c) {
    auto inspected = manager->Inspect(handles[c]);
    if (!inspected.ok() ||
        (*inspected)->Results() != recordings[c].expected) {
      std::fprintf(stderr, "FATAL: hosted %zu diverged from recording\n", c);
      return {};
    }
  }
  run.events_per_sec =
      seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  return run;
}

}  // namespace

ICROWD_BENCH("micro_multi_campaign") {
  const size_t campaigns = ctx.smoke() ? 6 : 24;
  const size_t workers = ctx.smoke() ? 6 : 10;
  std::vector<Recording> recordings(campaigns);
  uint64_t events = 0;
  for (size_t c = 0; c < campaigns; ++c) {
    if (!Record(c, workers, &recordings[c])) return;
    events += recordings[c].stream.size();
  }

  const size_t shard_counts[] = {1, 2, 4, 8};
  Series& sweep = ctx.AddSeries("shard_sweep");
  std::vector<double> create_ms;
  std::vector<double> create_first_ms;
  std::vector<double> create_shared_ms;
  for (size_t shards : shard_counts) {
    HostedRun hosted = RunHosted(recordings, shards);
    if (hosted.events_per_sec <= 0.0) return;
    create_ms.push_back(hosted.create_seconds * 1e3);
    create_first_ms.push_back(hosted.create_first_seconds * 1e3);
    create_shared_ms.push_back(hosted.create_shared_seconds * 1e3);
    ctx.ReportMetric("hosted_shard" + std::to_string(shards) +
                         "_events_per_sec",
                     hosted.events_per_sec);
    sweep.points.push_back({{{"shards", static_cast<double>(shards)},
                             {"events_per_sec", hosted.events_per_sec},
                             {"create_ms", hosted.create_seconds * 1e3}}});
  }

  ctx.AddIterations(events * std::size(shard_counts));
  ctx.ReportMetric("campaigns", static_cast<double>(campaigns));
  ctx.ReportMetric("stream_events", static_cast<double>(events));
  // Creation does not depend on the shard count (it runs on the caller's
  // thread); the fastest of the sweep's creations is the least noisy
  // reading of it.
  const double fastest_first =
      *std::min_element(create_first_ms.begin(), create_first_ms.end());
  const double fastest_shared =
      *std::min_element(create_shared_ms.begin(), create_shared_ms.end());
  ctx.ReportMetric("create_ms",
                   *std::min_element(create_ms.begin(), create_ms.end()));
  ctx.ReportMetric("create_first_ms", fastest_first);
  ctx.ReportMetric("create_shared_ms", fastest_shared);
  // The second-campaign-on-a-known-corpus target: under 5% of the first.
  ctx.ReportMetric("create_shared_ratio", fastest_shared / fastest_first);
}
