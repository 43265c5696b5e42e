// Reproduces Figure 6: diverse worker accuracies across domains, computed
// from the answers a random-assignment campaign collects (mirroring the
// paper, which analyzed the raw collected answers). Only workers that
// completed more than 20 microtasks are listed, as in the paper.

#include <cstdio>

#include "bench_util.h"
#include "sim/metrics.h"

using namespace icrowd;         // NOLINT
using namespace icrowd::bench;  // NOLINT

namespace {

void Report(BenchContext& ctx, const BenchDataset& bd,
            const char* figure_tag) {
  ICrowdConfig config;
  // Random assignment with no elimination spreads answers across the whole
  // pool, as the paper's collection phase did.
  config.strategy = StrategyKind::kRandomMV;
  auto result = RunExperiment(bd.dataset, bd.workers, config);
  if (!result.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  auto stats = ComputeWorkerDomainAccuracies(
      bd.dataset, result->sim.work_answers, /*min_answers=*/21);
  std::printf("--- Figure 6(%s): %s (%zu workers with > 20 answers) ---\n",
              figure_tag, bd.name.c_str(), stats.size());
  std::printf("%-10s %8s", "Worker", "answers");
  for (const std::string& domain : bd.dataset.domains()) {
    std::printf(" %12.12s", domain.c_str());
  }
  std::printf("\n");
  double max_spread = 0.0;
  for (const auto& worker : stats) {
    const WorkerProfile& profile =
        bd.workers[result->sim.worker_profile[worker.worker]];
    std::printf("%-10s %8zu", profile.external_id.c_str(),
                worker.total_answers);
    double lo = 1.0, hi = 0.0;
    for (size_t d = 0; d < worker.accuracy.size(); ++d) {
      if (worker.count[d] == 0) {
        std::printf(" %12s", "-");
        continue;
      }
      std::printf(" %7s (%2zu)", FormatDouble(worker.accuracy[d], 3).c_str(),
                  worker.count[d]);
      lo = std::min(lo, worker.accuracy[d]);
      hi = std::max(hi, worker.accuracy[d]);
    }
    std::printf("\n");
    max_spread = std::max(max_spread, hi - lo);
  }
  std::printf("max per-worker accuracy spread across domains: %s\n\n",
              FormatDouble(max_spread, 3).c_str());
  ctx.ReportMetric(bd.name + ".max_spread", max_spread);
  ctx.ReportMetric(bd.name + ".listed_workers",
                   static_cast<double>(stats.size()));
  ctx.AddIterations(result->sim.work_answers.size());
}

}  // namespace

ICROWD_BENCH("fig6_diversity") {
  std::printf("=== Figure 6: Diverse Workers' Accuracies Across Domains "
              "===\n\n");
  Report(ctx, LoadYahooQa(), "a");
  Report(ctx, LoadItemCompare(), "b");
  std::printf("Paper shape: individual workers are strong in some domains "
              "and weak in others\n(e.g. 0.875 in Books&Authors vs 0.176 in "
              "FIFA), and the top worker differs by domain.\n");
}
