// Reproduces Figure 12 (Appendix D.1): effect of the similarity measure
// (Jaccard, Cos(tf-idf), Cos(topic)) and the similarity threshold on
// iCrowd's accuracy, on the ItemCompare dataset.

#include <cstdio>

#include "bench_util.h"

using namespace icrowd;         // NOLINT
using namespace icrowd::bench;  // NOLINT

ICROWD_BENCH("fig12_similarity") {
  std::printf("=== Figure 12: Similarity Measures and Thresholds "
              "(ItemCompare) ===\n\n");
  const SimilarityMeasure kMeasures[] = {SimilarityMeasure::kJaccard,
                                         SimilarityMeasure::kCosineTfIdf,
                                         SimilarityMeasure::kCosineTopic};
  std::vector<double> thresholds = {0.2, 0.4, 0.6, 0.8, 0.95};
  if (ctx.smoke()) thresholds = {0.4, 0.8};

  std::printf("%-14s", "Measure");
  for (double thr : thresholds) {
    std::printf("   thr=%-5s", FormatDouble(thr, 2).c_str());
  }
  std::printf("\n");

  for (SimilarityMeasure measure : kMeasures) {
    std::printf("%-14s", SimilarityMeasureName(measure));
    icrowd::bench::Series& series = ctx.AddSeries(
        SimilarityMeasureName(measure));
    for (double thr : thresholds) {
      ICrowdConfig config;
      config.graph.measure = measure;
      config.graph.threshold = thr;
      BenchDataset bd = LoadItemCompare();
      AveragedReport report =
          RunAveraged(bd, config, StrategyKind::kAdapt, /*seeds=*/3);
      std::printf("   %-9s", FormatDouble(report.overall, 3).c_str());
      std::fflush(stdout);
      series.points.push_back(
          {{{"threshold", thr}, {"accuracy", report.overall}}});
      ctx.AddIterations(bd.dataset.size());
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape: measures behave similarly at small thresholds; "
      "extreme thresholds\nhurt (too-low adds weak cross-domain edges, "
      "too-high deletes strong ones);\nCos(topic) does best and 0.8 is the "
      "paper's default.\n");
}
