// ItemCompare campaign: full strategy shoot-out on the paper's larger
// dataset (§6.1) — all six strategies on the same simulated crowd — plus a
// Figure 15-style view of how assignments concentrate on the best workers.

#include <cstdio>

#include "icrowd_api.h"

using namespace icrowd;  // NOLINT: example brevity

int main() {
  auto dataset = GenerateItemCompare();
  if (!dataset.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::vector<WorkerProfile> crowd = GenerateItemCompareWorkers(*dataset);
  DatasetStats stats = dataset->Stats();
  std::printf(
      "ItemCompare-like dataset: %zu tasks, %zu domains, %zu workers\n\n",
      stats.num_microtasks, stats.num_domains, crowd.size());

  ICrowdConfig config;
  const StrategyKind kKinds[] = {
      StrategyKind::kRandomMV,   StrategyKind::kRandomEM,
      StrategyKind::kAvgAccPV,   StrategyKind::kQfOnly,
      StrategyKind::kBestEffort, StrategyKind::kAdapt,
  };
  std::vector<ExperimentResult> results;
  for (StrategyKind kind : kKinds) {
    config.strategy = kind;
    auto result = RunExperiment(*dataset, crowd, config);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment %s failed: %s\n", StrategyName(kind),
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(result.MoveValueOrDie());
  }

  std::printf("%-10s", "Domain");
  for (const ExperimentResult& r : results) {
    std::printf("%12s", r.strategy_name.c_str());
  }
  std::printf("\n");
  for (size_t d = 0; d < dataset->domains().size(); ++d) {
    std::printf("%-10s", dataset->domains()[d].c_str());
    for (const ExperimentResult& r : results) {
      std::printf("%12s",
                  FormatDouble(r.report.per_domain[d].accuracy, 3).c_str());
    }
    std::printf("\n");
  }
  std::printf("%-10s", "ALL");
  for (const ExperimentResult& r : results) {
    std::printf("%12s", FormatDouble(r.report.overall, 3).c_str());
  }
  std::printf("\n");

  // Figure 15 style: who did the work under iCrowd?
  const ExperimentResult& adapt = results.back();
  auto distribution = AssignmentDistribution(adapt.sim.work_answers);
  size_t total = adapt.sim.work_answers.size();
  std::printf("\nTop-10 workers by completed assignments under iCrowd "
              "(%zu total):\n", total);
  size_t top15 = 0;
  for (size_t i = 0; i < distribution.size(); ++i) {
    if (i < 15) top15 += distribution[i].second;
    if (i < 10) {
      std::printf(
          "  w%-4d %5zu assignments (%s%%)\n", distribution[i].first,
          distribution[i].second,
          FormatDouble(
              100.0 * static_cast<double>(distribution[i].second) /
                  static_cast<double>(std::max<size_t>(1, total)),
              1)
              .c_str());
    }
  }
  std::printf(
      "Top-15 workers completed %s%% of all assignments.\n",
      FormatDouble(100.0 * static_cast<double>(top15) /
                       static_cast<double>(std::max<size_t>(1, total)),
                   1)
          .c_str());
  return 0;
}
