// Microbenchmarks (google-benchmark) for the assignment machinery: top
// worker set computation (Definition 3), the greedy scheme (Algorithm 3),
// one full AdaptiveAssigner scheme rebuild on the Figure 10 workload and
// on a mid-campaign entity-resolution corpus, and one dirty-set estimate
// refresh on that corpus.

#include <benchmark/benchmark.h>

#include <memory>

#include "assign/greedy_assign.h"
#include "assign/top_workers.h"
#include "bench_util.h"
#include "common/random.h"
#include "gbench_adapter.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

std::vector<TopWorkerSet> RandomCandidates(size_t num_tasks,
                                           size_t num_workers, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopWorkerSet> candidates;
  candidates.reserve(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) {
    TopWorkerSet set;
    set.task = static_cast<TaskId>(t);
    for (size_t i : rng.SampleWithoutReplacement(num_workers, 3)) {
      set.workers.push_back(static_cast<WorkerId>(i));
      set.accuracies.push_back(rng.Uniform(0.4, 0.95));
    }
    candidates.push_back(std::move(set));
  }
  return candidates;
}

void BM_TopWorkerSets(benchmark::State& state) {
  const size_t num_tasks = static_cast<size_t>(state.range(0));
  const size_t num_workers = 50;
  CampaignState campaign(num_tasks, 3);
  std::vector<WorkerId> workers;
  for (size_t i = 0; i < num_workers; ++i) {
    workers.push_back(campaign.RegisterWorker());
  }
  AccuracyFn accuracy = [](WorkerId w, TaskId t) {
    return 0.5 + 0.004 * ((w * 7 + t * 3) % 100);
  };
  const std::vector<TaskId> tasks = campaign.UncompletedTasks();
  for (auto _ : state) {
    auto sets = ComputeTopWorkerSets(tasks, campaign, workers, accuracy);
    benchmark::DoNotOptimize(sets);
  }
  state.SetItemsProcessed(state.iterations() * num_tasks);
}
BENCHMARK(BM_TopWorkerSets)->Arg(360)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyAssign(benchmark::State& state) {
  auto candidates = RandomCandidates(static_cast<size_t>(state.range(0)),
                                     60, /*seed=*/3);
  for (auto _ : state) {
    auto scheme = GreedyAssign(candidates);
    benchmark::DoNotOptimize(scheme);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyAssign)->Arg(360)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SchemeRebuild(benchmark::State& state) {
  const size_t num_tasks = static_cast<size_t>(state.range(0));
  auto campaign = bench::MakeScalabilityCampaign(num_tasks, 20,
                                                 /*seed=*/31 + num_tasks);
  for (auto _ : state) {
    state.SetIterationTime(bench::RebuildScheme(*campaign));
  }
  state.SetItemsProcessed(state.iterations() * num_tasks);
}
BENCHMARK(BM_SchemeRebuild)->Arg(2'000)->Arg(10'000)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// A 1,600-task entity-resolution campaign mid-way through, with 40 active
// workers (the shape of perfbench's big_corpus). The campaign (graph, PPR,
// answer history) is built once per process and shared by every run.
bench::ScalabilityCampaign& EntityCampaign() {
  static const std::unique_ptr<bench::ScalabilityCampaign> campaign =
      bench::MakeEntityResolutionCampaign(400, 40, 40, /*seed=*/17);
  return *campaign;
}

// One rebuild on EntityCampaign(), where each rebuild runs several planning
// rounds (the "rounds" counter: mean rounds per rebuild).
void BM_EntityRebuild(benchmark::State& state) {
  bench::ScalabilityCampaign& campaign = EntityCampaign();
  auto& registry = obs::MetricsRegistry::Global();
  const obs::HistogramSnapshot before =
      registry.HistogramValue("icrowd.assign.planning_rounds");
  for (auto _ : state) {
    state.SetIterationTime(bench::RebuildScheme(campaign));
  }
  const obs::HistogramSnapshot after =
      registry.HistogramValue("icrowd.assign.planning_rounds");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(campaign.state.num_tasks()));
  if (after.count > before.count) {
    state.counters["rounds"] = (after.sum - before.sum) /
                               static_cast<double>(after.count - before.count);
  }
}
BENCHMARK(BM_EntityRebuild)->UseManualTime()->Unit(benchmark::kMillisecond);

// One RefreshMany of a dirty batch of range(0) workers on EntityCampaign()
// (a copy of its estimator, so the shared campaign is left as it is), on a
// pool of range(1) threads (0 = serial). Each worker holds about 40 graded
// answers, so 3 workers stay below the estimator's serial cutoff and 16
// cross it.
void BM_RefreshMany(benchmark::State& state) {
  bench::ScalabilityCampaign& campaign = EntityCampaign();
  AccuracyEstimator estimator = campaign.assigner->estimator();
  const size_t batch = static_cast<size_t>(state.range(0));
  const std::vector<WorkerId> dirty(campaign.workers.begin(),
                                    campaign.workers.begin() +
                                        static_cast<ptrdiff_t>(batch));
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(state.range(1)));
  }
  for (auto _ : state) {
    estimator.RefreshMany(dirty, campaign.state, campaign.dataset, pool.get());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_RefreshMany)
    ->Args({3, 0})->Args({3, 2})->Args({16, 0})->Args({16, 2})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace icrowd

ICROWD_BENCH("micro_assign") { icrowd::bench::RunGoogleBenchmarks(ctx); }
