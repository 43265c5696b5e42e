// Multi-campaign host driver (DESIGN.md §16): the v2 API end to end, at
// scale, with the isolation contract checked on every campaign.
//
//   multi_campaign_driver [--campaigns=500] [--shards=4] [--workers=6]
//                         [--seed=100] [--threads=1] [--no-verify]
//                         [--serve-obs=PORT] [--metricsz-out=FILE]
//
// The driver first records a solo reference for every campaign — a
// per-event DriveCampaign against a standalone ICrowd, capturing its
// journal bytes, results, accuracy estimates and stream — then hosts all
// of them concurrently in one sharded CampaignManager, submitting the
// recorded streams interleaved round-robin so every shard batch mixes
// campaigns. After DrainAll it verifies each hosted campaign is
// bit-identical to its solo run: same journal bytes, same results, same
// accuracy doubles, same stream position. Any divergence is a hard
// failure (exit 1) naming the campaign.
//
// Campaigns are deliberately heterogeneous (dataset shape, seed and
// worker-churn vary per index): isolation bugs that need disagreeing
// neighbours to surface stay visible at any --campaigns.
//
// --serve-obs=PORT hosts the embedded observability server for the run
// (0 = ephemeral, printed on stdout): /metricsz carries the per-campaign
// icrowd_host_* families next to the process registry, /statusz grows the
// [host] section. --metricsz-out=FILE scrapes /metricsz over a real
// socket after the drain and writes the body to FILE (starting an
// ephemeral server if --serve-obs was not given); CI validates that file
// with tools/check_prometheus.py.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "icrowd_api.h"

using namespace icrowd;  // NOLINT: example brevity

namespace {

struct DriverOptions {
  size_t campaigns = 500;
  size_t shards = 4;
  size_t workers = 6;
  uint64_t seed = 100;
  size_t threads = 1;
  bool verify = true;
  int serve_obs_port = -1;
  std::string metricsz_out;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Stores a checked numeric flag value (ParseInt/ParseUint) in `*out`. A
/// malformed or out-of-range value is reported and returns false, so the
/// caller exits through Usage() instead of aborting on an uncaught
/// exception or wrapping silently.
template <typename T, typename V>
bool SetNumber(const std::string& arg, const Result<V>& parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: multi_campaign_driver [--campaigns=500] [--shards=4]\n"
               "                             [--workers=6] [--seed=100]\n"
               "                             [--threads=1] [--no-verify]\n"
               "                             [--serve-obs=PORT]\n"
               "                             [--metricsz-out=FILE]\n");
  return 2;
}

/// Campaign `index`'s identity: dataset shape, decision seed and worker
/// churn all vary by index so hosted neighbours are structurally
/// different.
Dataset MakeDataset(size_t index) {
  EntityResolutionOptions er;
  er.tasks_per_family = 4 + index % 3;
  return GenerateEntityResolution(er).MoveValueOrDie();
}

ICrowdConfig MakeConfig(const DriverOptions& options, size_t index) {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = options.seed + 13 * index;
  return config;
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

struct SoloReference {
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<double> accuracies;
  uint64_t events_applied = 0;
  bool finished = false;
  std::vector<IngestEvent> stream;
};

bool RunSolo(const DriverOptions& options, size_t index,
             SoloReference* out) {
  Dataset dataset = MakeDataset(index);
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(dataset, options.workers);
  ICrowdConfig config = MakeConfig(options, index);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), std::move(config));
  if (!system.ok()) {
    std::fprintf(stderr, "solo %zu: create failed: %s\n", index,
                 system.status().ToString().c_str());
    return false;
  }
  CampaignDriverOptions drive;
  drive.seed = options.seed + 13 * index;
  drive.leave_after = index % 3 == 1 ? 6 : 0;
  auto outcome =
      DriveCampaign(system->get(), profiles, options.workers, drive);
  if (!outcome.ok()) {
    std::fprintf(stderr, "solo %zu: drive failed: %s\n", index,
                 outcome.status().ToString().c_str());
    return false;
  }
  out->journal = sink->bytes();
  out->results = (*system)->Results();
  out->accuracies = AccuracyGrid(**system);
  out->events_applied = (*system)->events_applied();
  out->finished = (*system)->Finished();
  auto parsed = ReadJournal(out->journal);
  if (!parsed.ok()) {
    std::fprintf(stderr, "solo %zu: journal unreadable: %s\n", index,
                 parsed.status().ToString().c_str());
    return false;
  }
  out->stream = IngestStreamFromJournal(parsed->events);
  return true;
}

std::string CampaignName(size_t index) {
  // Appended in a local: GCC 12's -Wrestrict misfires on `literal + string`.
  std::string name = "campaign-";
  name += std::to_string(index);
  return name;
}

/// One hosted campaign against its solo reference; prints and counts every
/// divergence.
bool VerifyCampaign(const CampaignManager& manager, CampaignHandle handle,
                    const SoloReference& solo, size_t index) {
  auto inspected = manager.Inspect(handle);
  if (!inspected.ok()) {
    std::fprintf(stderr, "verify %zu: %s\n", index,
                 inspected.status().ToString().c_str());
    return false;
  }
  const ICrowd& system = **inspected;
  bool ok = true;
  if (system.Results() != solo.results) {
    std::fprintf(stderr, "verify %zu: results diverge from solo\n", index);
    ok = false;
  }
  if (AccuracyGrid(system) != solo.accuracies) {
    std::fprintf(stderr, "verify %zu: accuracy estimates diverge\n", index);
    ok = false;
  }
  if (system.events_applied() != solo.events_applied) {
    std::fprintf(stderr, "verify %zu: stream position %llu != solo %llu\n",
                 index,
                 static_cast<unsigned long long>(system.events_applied()),
                 static_cast<unsigned long long>(solo.events_applied));
    ok = false;
  }
  auto journal = manager.JournalBytes(handle);
  if (!journal.ok()) {
    std::fprintf(stderr, "verify %zu: %s\n", index,
                 journal.status().ToString().c_str());
    ok = false;
  } else if (*journal != solo.journal) {
    std::fprintf(stderr, "verify %zu: journal bytes diverge from solo\n",
                 index);
    ok = false;
  }
  return ok;
}

int Run(const DriverOptions& options) {
  using Clock = std::chrono::steady_clock;

  // Phase 1: solo references (these also produce the event streams the
  // hosted run replays).
  auto solo_start = Clock::now();
  std::vector<SoloReference> solo(options.campaigns);
  uint64_t total_events = 0;
  for (size_t c = 0; c < options.campaigns; ++c) {
    if (!RunSolo(options, c, &solo[c])) return 1;
    total_events += solo[c].stream.size();
  }
  double solo_seconds =
      std::chrono::duration<double>(Clock::now() - solo_start).count();
  std::printf("solo: %zu campaigns, %llu events, %.2fs\n", options.campaigns,
              static_cast<unsigned long long>(total_events), solo_seconds);

  // Phase 2: host all of them at once.
  HostConfig host;
  host.num_shards = options.shards;
  host.num_threads = options.threads;
  host.serve_obs_port = options.serve_obs_port;
  if (options.serve_obs_port < 0 && !options.metricsz_out.empty()) {
    host.serve_obs_port = 0;  // the scrape needs a live server
  }
  host.campaign_label = "multi_campaign_driver";
  auto manager_or = CampaignManager::Start(host);
  if (!manager_or.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 manager_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<CampaignManager> manager = manager_or.MoveValueOrDie();
  if (manager->obs_port() >= 0) {
    std::printf("obs server on port %d\n", manager->obs_port());
  }

  auto hosted_start = Clock::now();
  std::vector<CampaignHandle> handles;
  handles.reserve(options.campaigns);
  for (size_t c = 0; c < options.campaigns; ++c) {
    CampaignManager::CampaignOptions campaign;
    campaign.name = CampaignName(c);
    campaign.dataset = MakeDataset(c);
    campaign.config = MakeConfig(options, c);
    auto handle = manager->CreateCampaign(std::move(campaign));
    if (!handle.ok()) {
      std::fprintf(stderr, "create %zu failed: %s\n", c,
                   handle.status().ToString().c_str());
      return 1;
    }
    handles.push_back(*handle);
  }

  // Interleave every stream round-robin in small chunks: each shard batch
  // mixes campaigns, the regrouping path the isolation contract covers.
  constexpr size_t kChunk = 4;
  std::vector<size_t> position(options.campaigns, 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t c = 0; c < options.campaigns; ++c) {
      size_t end = std::min(position[c] + kChunk, solo[c].stream.size());
      for (; position[c] < end; ++position[c]) {
        Status submitted =
            manager->SubmitEvent(handles[c], solo[c].stream[position[c]]);
        if (!submitted.ok()) {
          std::fprintf(stderr, "submit %zu failed: %s\n", c,
                       submitted.ToString().c_str());
          return 1;
        }
        progressed = true;
      }
    }
  }
  Status drained = manager->DrainAll();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
    return 1;
  }
  double hosted_seconds =
      std::chrono::duration<double>(Clock::now() - hosted_start).count();
  std::printf("hosted: %zu campaigns on %zu shards, %.2fs (%.0f events/s)\n",
              manager->num_campaigns(), manager->num_shards(), hosted_seconds,
              hosted_seconds > 0
                  ? static_cast<double>(total_events) / hosted_seconds
                  : 0.0);

  size_t finished = 0;
  for (const auto& stats : manager->Stats()) {
    if (stats.finished) ++finished;
  }
  std::printf("finished: %zu/%zu\n", finished, options.campaigns);

  if (options.verify) {
    size_t divergent = 0;
    for (size_t c = 0; c < options.campaigns; ++c) {
      if (!VerifyCampaign(*manager, handles[c], solo[c], c)) ++divergent;
    }
    if (divergent > 0) {
      std::fprintf(stderr,
                   "FAIL: %zu of %zu hosted campaigns diverge from solo\n",
                   divergent, options.campaigns);
      return 1;
    }
    std::printf("verify: all %zu hosted campaigns bit-identical to solo\n",
                options.campaigns);
  }

  if (!options.metricsz_out.empty()) {
    obs::HttpResponse scraped =
        obs::HttpGet("127.0.0.1", manager->obs_port(), "/metricsz");
    if (!scraped.ok()) {
      std::fprintf(stderr, "metricsz scrape failed: http %d %s\n",
                   scraped.status, scraped.error.c_str());
      return 1;
    }
    std::ofstream out(options.metricsz_out, std::ios::binary);
    out << scraped.body;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.metricsz_out.c_str());
      return 1;
    }
    std::printf("metricsz: %zu bytes -> %s\n", scraped.body.size(),
                options.metricsz_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool parsed = true;
    if (ParseFlag(arg, "campaigns", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.campaigns);
    } else if (ParseFlag(arg, "shards", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.shards);
    } else if (ParseFlag(arg, "workers", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.workers);
    } else if (ParseFlag(arg, "seed", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.seed);
    } else if (ParseFlag(arg, "threads", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.threads);
    } else if (arg == "--no-verify") {
      options.verify = false;
    } else if (ParseFlag(arg, "serve-obs", &value)) {
      parsed =
          SetNumber(arg, ParseInt(value, 0, 65535), &options.serve_obs_port);
    } else if (ParseFlag(arg, "metricsz-out", &value)) {
      options.metricsz_out = value;
    } else {
      return Usage();
    }
    if (!parsed) return Usage();
  }
  if (options.campaigns == 0 || options.shards == 0) return Usage();
  return Run(options);
}
