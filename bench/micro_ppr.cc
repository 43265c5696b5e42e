// Microbenchmarks (google-benchmark) for the personalized-PageRank engine:
// offline per-seed precompute cost and the O(|T|) online linearity step of
// Algorithm 1. Pruning keeps per-seed supports local (the regime the
// engine actually runs in); iteration counts are pinned so the bench stays
// fast on one core.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "datagen/scalability.h"
#include "gbench_adapter.h"
#include "graph/ppr.h"

namespace icrowd {
namespace {

PprOptions BoundedOptions() {
  PprOptions options;
  // Localized solves: mass below 1e-4 is dropped per sweep, so each seed's
  // support stays in its neighborhood even on connected random graphs.
  options.prune_epsilon = 1e-4;
  options.tolerance = 1e-6;
  return options;
}

void BM_PprPrecompute(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SimilarityGraph graph = GenerateRandomBoundedGraph(n, 12, /*seed=*/n);
  PprOptions options = BoundedOptions();
  for (auto _ : state) {
    auto engine = PprEngine::Precompute(graph, options);
    benchmark::DoNotOptimize(engine);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Full convergence is how the paper-scale datasets (110-360 tasks) run.
BENCHMARK(BM_PprPrecompute)->Arg(360)->Arg(2000)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_PprPrecomputeOneSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SimilarityGraph graph = GenerateRandomBoundedGraph(n, 20, /*seed=*/n);
  PprOptions options = BoundedOptions();
  // Large graphs run the bounded-influence configuration (Fig. 10).
  options.max_iterations = 1;
  for (auto _ : state) {
    auto engine = PprEngine::Precompute(graph, options);
    benchmark::DoNotOptimize(engine);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PprPrecomputeOneSweep)->Arg(100000)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_PprOnlineEstimate(benchmark::State& state) {
  const size_t n = 4000;
  const size_t observed_count = static_cast<size_t>(state.range(0));
  SimilarityGraph graph = GenerateRandomBoundedGraph(n, 12, /*seed=*/7);
  auto engine = PprEngine::Precompute(graph, BoundedOptions());
  Rng rng(9);
  SparseEntries observed;
  for (size_t i : rng.SampleWithoutReplacement(n, observed_count)) {
    observed.emplace_back(static_cast<int32_t>(i), rng.Uniform());
  }
  std::sort(observed.begin(), observed.end());
  for (auto _ : state) {
    auto estimate = engine->EstimateFromObserved(observed);
    benchmark::DoNotOptimize(estimate);
  }
  state.SetItemsProcessed(state.iterations() * observed_count);
}
BENCHMARK(BM_PprOnlineEstimate)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace icrowd

ICROWD_BENCH("micro_ppr") { icrowd::bench::RunGoogleBenchmarks(ctx); }
