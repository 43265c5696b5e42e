#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "host/host_config.h"
#include "model/dataset.h"
#include "sim/campaign_driver.h"
#include "sim/worker_profile.h"

namespace perfbench {

/// The three corpus shapes of the paper's evaluation (§6.1).
enum class CorpusKind { kYahooQa, kItemCompare, kEntityResolution };

/// One generated corpus. Several campaigns may run over the same corpus.
struct CorpusSpec {
  CorpusKind kind = CorpusKind::kEntityResolution;
  /// Tasks for YahooQA; tasks per domain for ItemCompare; tasks per
  /// product family for entity resolution.
  size_t size = 0;
  uint64_t data_seed = 0;
  uint64_t worker_seed = 0;
  /// Simulated workers in the pool (fixed by the generator for YahooQA and
  /// ItemCompare).
  size_t num_workers = 0;
};

/// One hosted campaign: which corpus, its decision config, and the simulated
/// crowd whose solo drive records the event stream the host replays.
struct CampaignSpec {
  std::string name;
  size_t corpus = 0;
  icrowd::ICrowdConfig config;
  icrowd::CampaignDriverOptions drive;
};

/// Everything a run needs, derived from (workload name, seed) alone.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<CorpusSpec> corpora;
  std::vector<CampaignSpec> campaigns;
  /// Shard count and online thread count of the serving host.
  size_t num_shards = 1;
  size_t num_threads = 1;
  /// Share of every campaign's stream replayed closed-loop (the first part
  /// of phase B) before phase A. It moves the open loop past the warm-up
  /// rounds, which the workload does not study there, so that phase A sees
  /// a steady mix of adaptive assignments.
  double prefix_share = 0.0;
  /// Phase-A open-loop arrival rate, events/s, frozen from the first
  /// measurements of the parent code (see README.md).
  double phase_a_rate = 0.0;
  /// Rounds per run, each on freshly set-up campaigns: one around phase A,
  /// then closed-loop ones that give events_per_s and cpu_us_per_event.
  size_t rounds = 4;
};

/// The workload names the benchmark accepts.
const std::vector<std::string>& WorkloadNames();

/// Builds the workload for `seed`. Fails on an unknown name.
icrowd::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Canonical one-line-per-item text of every input a workload fixes; equal
/// text means equal inputs. Keys the recording cache.
std::string DescribeWorkload(const Workload& workload);

icrowd::Result<icrowd::Dataset> GenerateCorpus(const CorpusSpec& corpus);
std::vector<icrowd::WorkerProfile> GenerateWorkers(
    const CorpusSpec& corpus, const icrowd::Dataset& dataset);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
