// Reproduces Figure 15 (Appendix D.5): distribution of completed microtask
// assignments over the top workers under iCrowd, ItemCompare dataset
// (360 tasks x k=3 = 1080 assignments in the paper).

#include <cstdio>

#include "bench_util.h"
#include "sim/metrics.h"

using namespace icrowd;         // NOLINT
using namespace icrowd::bench;  // NOLINT

ICROWD_BENCH("fig15_distribution") {
  std::printf("=== Figure 15: Distribution of Microtask Completions for Top "
              "Workers (ItemCompare) ===\n\n");
  BenchDataset bd = LoadItemCompare();
  auto result = RunExperiment(bd.dataset, bd.workers, ICrowdConfig{});
  if (!result.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  auto distribution = AssignmentDistribution(result->sim.work_answers);
  size_t total = result->sim.work_answers.size();
  std::printf("total completed assignments: %zu (paper: 1080 = 360 x k)\n\n",
              total);
  std::printf("%-6s %-12s %12s %10s %12s\n", "rank", "worker", "assignments",
              "share", "cumulative");
  size_t cumulative = 0;
  double top15_share = 0.0;
  icrowd::bench::Series& series = ctx.AddSeries("completion_share");
  for (size_t i = 0; i < distribution.size() && i < 15; ++i) {
    cumulative += distribution[i].second;
    double share =
        100.0 * static_cast<double>(distribution[i].second) /
        static_cast<double>(total);
    double cum_share =
        100.0 * static_cast<double>(cumulative) / static_cast<double>(total);
    const WorkerProfile& profile =
        bd.workers[result->sim.worker_profile[distribution[i].first]];
    std::printf("%-6zu %-12s %12zu %9.1f%% %11.1f%%\n", i + 1,
                profile.external_id.c_str(), distribution[i].second, share,
                cum_share);
    series.points.push_back({{{"rank", static_cast<double>(i + 1)},
                              {"share", share},
                              {"cumulative", cum_share}}});
    top15_share = cum_share;
  }
  std::printf("\ntop-15 workers completed %.1f%% of all assignments "
              "(paper: 84%%, top worker > 13%%).\n",
              top15_share);
  ctx.ReportMetric("top15_share", top15_share);
  ctx.AddIterations(total);
}
