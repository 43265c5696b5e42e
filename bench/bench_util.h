#ifndef ICROWD_BENCH_BENCH_UTIL_H_
#define ICROWD_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction benches: the standard
// datasets, multi-seed experiment averaging, aligned table printing, and
// the Figure 10 assignment workload.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "assign/adaptive_assigner.h"
#include "bench_harness.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sim/experiment.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "datagen/scalability.h"
#include "datagen/yahooqa.h"

namespace icrowd {
namespace bench {

struct BenchDataset {
  std::string name;
  Dataset dataset;
  std::vector<WorkerProfile> workers;
};

/// Loads one of the two §6.1 datasets with its worker pool. Aborts on
/// error: benches have no recovery path.
inline BenchDataset LoadYahooQa() {
  auto ds = GenerateYahooQa();
  if (!ds.ok()) {
    std::fprintf(stderr, "YahooQA datagen failed: %s\n",
                 ds.status().ToString().c_str());
    std::abort();
  }
  auto workers = GenerateYahooQaWorkers(*ds);
  return {"YahooQA", ds.MoveValueOrDie(), std::move(workers)};
}

inline BenchDataset LoadItemCompare() {
  auto ds = GenerateItemCompare();
  if (!ds.ok()) {
    std::fprintf(stderr, "ItemCompare datagen failed: %s\n",
                 ds.status().ToString().c_str());
    std::abort();
  }
  auto workers = GenerateItemCompareWorkers(*ds);
  return {"ItemCompare", ds.MoveValueOrDie(), std::move(workers)};
}

/// Per-domain + overall accuracy of one strategy averaged over `seeds`
/// campaign runs (damps simulated-crowd noise; the paper ran one real
/// crowd).
struct AveragedReport {
  std::string strategy;
  std::vector<double> per_domain;  // aligned with dataset.domains()
  double overall = 0.0;
};

inline AveragedReport RunAveraged(const BenchDataset& bd, ICrowdConfig config,
                                  StrategyKind kind, int seeds = 0,
                                  uint64_t seed_base = 1000) {
  // Small campaigns (YahooQA: 110 tasks) have high per-run variance; scale
  // the averaging with the inverse dataset size. Smoke runs (CI's
  // bench-smoke job, ICROWD_BENCH_SMOKE=1) collapse to one seed: they gate
  // plumbing and perf, not accuracy.
  if (seeds == 0) seeds = bd.dataset.size() < 200 ? 16 : 6;
  if (SmokeActive()) seeds = 1;
  AveragedReport out;
  out.strategy = StrategyName(kind);
  out.per_domain.assign(bd.dataset.domains().size(), 0.0);
  config.strategy = kind;
  for (int s = 0; s < seeds; ++s) {
    config.seed = seed_base + s;
    auto result = RunExperiment(bd.dataset, bd.workers, config);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment %s failed: %s\n", out.strategy.c_str(),
                   result.status().ToString().c_str());
      std::abort();
    }
    for (size_t d = 0; d < out.per_domain.size(); ++d) {
      out.per_domain[d] += result->report.per_domain[d].accuracy;
    }
    out.overall += result->report.overall;
  }
  for (double& v : out.per_domain) v /= seeds;
  out.overall /= seeds;
  return out;
}

/// Records one averaged report into the BENCH artifact: the overall
/// accuracy as a metric `<dataset>.<strategy>.overall` plus a per-domain
/// series — the durable form of the paper's accuracy tables.
inline void ReportAveraged(BenchContext& ctx, const BenchDataset& bd,
                           const AveragedReport& report) {
  const std::string prefix = bd.name + "." + report.strategy;
  ctx.ReportMetric(prefix + ".overall", report.overall);
  Series& series = ctx.AddSeries(prefix + ".per_domain");
  series.points.clear();
  for (size_t d = 0; d < report.per_domain.size(); ++d) {
    series.points.push_back(
        {{{"domain", static_cast<double>(d)},
          {"accuracy", report.per_domain[d]}}});
  }
}

/// Prints a per-domain accuracy table: one column per report, one row per
/// domain plus the "ALL" row — the layout of Figures 7, 8, 9.
inline void PrintAccuracyTable(const BenchDataset& bd,
                               const std::vector<AveragedReport>& reports) {
  std::printf("%-18s", "Domain");
  for (const AveragedReport& r : reports) {
    std::printf("%14s", r.strategy.c_str());
  }
  std::printf("\n");
  for (size_t d = 0; d < bd.dataset.domains().size(); ++d) {
    std::printf("%-18s", bd.dataset.domains()[d].c_str());
    for (const AveragedReport& r : reports) {
      std::printf("%14s", FormatDouble(r.per_domain[d], 3).c_str());
    }
    std::printf("\n");
  }
  std::printf("%-18s", "ALL");
  for (const AveragedReport& r : reports) {
    std::printf("%14s", FormatDouble(r.overall, 3).c_str());
  }
  std::printf("\n");
}

/// A campaign set up to time scheme rebuilds: a default AdaptiveAssigner
/// with registered workers that hold graded answers. Each request
/// RebuildScheme makes runs one full scheme rebuild, the served-path cost
/// Figure 10 and micro_assign time. MakeScalabilityCampaign builds the
/// Figure 10 workload (§6.5), MakeEntityResolutionCampaign a text corpus.
struct ScalabilityCampaign {
  explicit ScalabilityCampaign(size_t num_tasks) : state(num_tasks, 3) {}

  Dataset dataset;
  CampaignState state;
  std::vector<WorkerId> workers;
  std::unique_ptr<AdaptiveAssigner> assigner;
  /// Offline PPR precompute inside AccuracyEstimator::Create.
  double precompute_seconds = 0.0;
};

/// The Figure 10 workload with a serial assigner: a GenerateRandomBoundedGraph
/// of `num_tasks` tasks and 50 workers that each hold about 100 graded
/// answers (SimulateGradedAnswers). Aborts on error: benches have no
/// recovery path.
inline std::unique_ptr<ScalabilityCampaign> MakeScalabilityCampaign(
    size_t num_tasks, size_t max_neighbors, uint64_t seed) {
  auto campaign = std::make_unique<ScalabilityCampaign>(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) campaign->dataset.AddTask({});
  SimilarityGraph graph =
      GenerateRandomBoundedGraph(num_tasks, max_neighbors, seed);
  AccuracyEstimatorOptions options;
  // One propagation sweep: a task's accuracy evidence influences exactly
  // its bounded neighbor set, matching the paper's simulation setup.
  options.ppr.max_iterations = 1;
  options.ppr.prune_epsilon = 1e-4;
  Stopwatch precompute;
  auto estimator = AccuracyEstimator::Create(graph, options);
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimator.status().ToString().c_str());
    std::abort();
  }
  campaign->precompute_seconds = precompute.ElapsedSeconds();
  campaign->workers = SimulateGradedAnswers(&campaign->state, 50, 100,
                                            seed + 1);
  campaign->assigner = std::make_unique<AdaptiveAssigner>(
      &campaign->dataset,
      std::make_unique<AccuracyEstimator>(estimator.MoveValueOrDie()));
  for (WorkerId w : campaign->workers) {
    campaign->assigner->OnWorkerRegistered(w, 0.7, campaign->state);
  }
  return campaign;
}

/// A mid-campaign entity-resolution workload: the GenerateEntityResolution
/// corpus (`tasks_per_family` tasks in each of its four product families)
/// on a Jaccard graph at threshold 0.3, as perfbench's big_corpus builds
/// it, with `num_workers` workers that each hold about `answers_per_worker`
/// graded answers (SimulateGradedAnswers). Unlike the bounded Figure 10
/// graph, a worker's estimates here differ on most tasks, so one rebuild
/// runs several planning rounds. Aborts on error.
inline std::unique_ptr<ScalabilityCampaign> MakeEntityResolutionCampaign(
    size_t tasks_per_family, size_t num_workers, size_t answers_per_worker,
    uint64_t seed) {
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "entity-resolution campaign failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  };
  EntityResolutionOptions corpus;
  corpus.tasks_per_family = tasks_per_family;
  auto dataset = GenerateEntityResolution(corpus);
  if (!dataset.ok()) fail(dataset.status());
  GraphBuildOptions graph_options;
  graph_options.measure = SimilarityMeasure::kJaccard;
  graph_options.threshold = 0.3;
  auto graph = SimilarityGraph::Build(*dataset, graph_options);
  if (!graph.ok()) fail(graph.status());
  Stopwatch precompute;
  auto estimator = AccuracyEstimator::Create(*graph, {});
  if (!estimator.ok()) fail(estimator.status());
  auto campaign = std::make_unique<ScalabilityCampaign>(dataset->size());
  campaign->precompute_seconds = precompute.ElapsedSeconds();
  campaign->dataset = dataset.MoveValueOrDie();
  campaign->workers = SimulateGradedAnswers(
      &campaign->state, num_workers, answers_per_worker, seed);
  campaign->assigner = std::make_unique<AdaptiveAssigner>(
      &campaign->dataset,
      std::make_unique<AccuracyEstimator>(estimator.MoveValueOrDie()));
  for (WorkerId w : campaign->workers) {
    campaign->assigner->OnWorkerRegistered(w, 0.7, campaign->state);
  }
  return campaign;
}

/// Runs one full scheme rebuild and returns its wall-clock seconds as the
/// assigner's own Stats() records them. Every call rebuilds: serving a
/// plan entry consumes it, so the first worker's next request misses the
/// cached plan. The campaign state is left untouched.
inline double RebuildScheme(ScalabilityCampaign& campaign) {
  AssignerStats before = campaign.assigner->Stats();
  campaign.assigner->RequestTask(campaign.workers[0], campaign.state,
                                 campaign.workers);
  AssignerStats after = campaign.assigner->Stats();
  if (after.scheme_recomputations != before.scheme_recomputations + 1) {
    std::fprintf(stderr, "expected exactly one scheme rebuild, saw %zu\n",
                 after.scheme_recomputations - before.scheme_recomputations);
    std::abort();
  }
  return after.scheme_recompute_seconds - before.scheme_recompute_seconds;
}

}  // namespace bench
}  // namespace icrowd

#endif  // ICROWD_BENCH_BENCH_UTIL_H_
