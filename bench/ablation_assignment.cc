// Ablation bench for the assignment design choices: multi-round scheme
// planning vs a single Algorithm 3 pass, performance testing on/off, and
// the set-packing greedy vs an exact one-to-one Hungarian matching per
// round (Kuhn [20], the classical alternative the paper's related work
// cites). Each variant is a StrategyKind run through the served campaign.

#include <cstdio>

#include "bench_util.h"

using namespace icrowd;         // NOLINT
using namespace icrowd::bench;  // NOLINT

ICROWD_BENCH("ablation_assignment") {
  std::printf("=== Ablation: assignment design choices (ItemCompare) "
              "===\n\n");
  BenchDataset bd = LoadItemCompare();
  const int kSeeds = ctx.smoke() ? 1 : 6;  // RunAveraged's smoke seed count

  struct Variant {
    const char* name;
    const char* metric_key;
    StrategyKind kind;
  };
  const Variant kVariants[] = {
      {"Adapt (full)", "adapt_full", StrategyKind::kAdapt},
      {"single-round scheme", "single_round",
       StrategyKind::kAdaptSingleRound},
      {"no performance testing", "no_perf_testing",
       StrategyKind::kAdaptNoTesting},
      {"Hungarian matching", "hungarian", StrategyKind::kHungarian},
  };
  for (const Variant& variant : kVariants) {
    double acc =
        RunAveraged(bd, ICrowdConfig{}, variant.kind, kSeeds).overall;
    std::printf("  %-24s overall %s\n", variant.name,
                FormatDouble(acc, 3).c_str());
    std::fflush(stdout);
    ctx.ReportMetric(std::string("accuracy.") + variant.metric_key, acc);
    ctx.AddIterations(bd.dataset.size() * static_cast<size_t>(kSeeds));
  }

  std::printf(
      "\nThe single-round variant routes most workers through step-3 "
      "testing (exploration\nheavy); Hungarian matches each worker optimally "
      "one-to-one but ignores the\nk-worker-set structure majority voting "
      "depends on.\n");
}
