// Microbenchmarks (google-benchmark) for the assignment machinery: top
// worker set computation (Definition 3), the greedy scheme (Algorithm 3),
// and one full AdaptiveAssigner scheme rebuild on the Figure 10 workload.

#include <benchmark/benchmark.h>

#include "assign/greedy_assign.h"
#include "assign/top_workers.h"
#include "bench_util.h"
#include "common/random.h"
#include "gbench_adapter.h"

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

}  // namespace
}  // namespace icrowd

ICROWD_BENCH("micro_assign") { icrowd::bench::RunGoogleBenchmarks(ctx); }
