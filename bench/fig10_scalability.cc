// Reproduces Figure 10: scalability of assignment with simulation. Tasks
// are inserted in large batches (the paper used 0.2M steps up to 1M); each
// task gets a bounded number of random neighbors (the §6.5 "maximal number
// of neighbors" knob: 20 or 40). For each size we time one full scheme
// rebuild of the served AdaptiveAssigner over 50 workers with about 100
// graded answers each, plus the offline per-seed PPR precompute.
//
// The assigner keeps dense per-worker estimates (about 2.4 KB per task at
// 50 workers), so the sweep stops at 100k tasks; --smoke runs 5k and 10k.

#include <cstdio>
#include <string>

#include "bench_util.h"

using namespace icrowd;  // NOLINT

namespace {

struct Row {
  size_t num_tasks;
  double offline_seconds;
  double rebuild_seconds;
};

Row RunOne(size_t num_tasks, size_t max_neighbors, uint64_t seed) {
  auto campaign =
      bench::MakeScalabilityCampaign(num_tasks, max_neighbors, seed);
  double rebuild_seconds = bench::RebuildScheme(*campaign);
  return {num_tasks, campaign->precompute_seconds, rebuild_seconds};
}

}  // namespace

ICROWD_BENCH("fig10_scalability") {
  std::vector<size_t> sizes = {20'000, 40'000, 60'000, 80'000, 100'000};
  if (ctx.smoke()) sizes = {5'000, 10'000};
  std::printf("=== Figure 10: Evaluating Scalability with Simulation ===\n");
  std::printf("(%s sweep; AdaptiveAssigner scheme rebuild, 50 workers)\n\n",
              ctx.smoke() ? "smoke 5k-10k" : "default 20k-100k");
  for (size_t max_neighbors : {size_t{20}, size_t{40}}) {
    std::printf("--- max neighbors = %zu ---\n", max_neighbors);
    std::printf("%12s %18s %18s\n", "# tasks", "offline PPR (s)",
                "scheme rebuild (s)");
    bench::Series& series = ctx.AddSeries(
        "neighbors_" + std::to_string(max_neighbors));
    Row row{};
    for (size_t n : sizes) {
      row = RunOne(n, max_neighbors, /*seed=*/31 + n);
      std::printf("%12zu %18s %18s\n", row.num_tasks,
                  FormatDouble(row.offline_seconds, 3).c_str(),
                  FormatDouble(row.rebuild_seconds, 3).c_str());
      series.points.push_back(
          {{{"tasks", static_cast<double>(row.num_tasks)},
            {"offline_seconds", row.offline_seconds},
            {"rebuild_seconds", row.rebuild_seconds}}});
      ctx.AddIterations(row.num_tasks);
    }
    // The gate-able scalar: one rebuild at the sweep's largest size (the
    // paper's headline scaling claim), in ms so bench_compare's absolute
    // floor applies in its own unit.
    ctx.ReportMetric("rebuild_ms.n" + std::to_string(row.num_tasks) + ".nb" +
                         std::to_string(max_neighbors),
                     1e3 * row.rebuild_seconds);
    std::printf("\n");
  }
  std::printf(
      "Paper shape: elapsed assignment time grows sub-linearly in the number "
      "of tasks.\nThis rebuild scores every open task for every worker, so "
      "it grows about\nlinearly; see EXPERIMENTS.md.\n");
}
