#include "graph/ppr.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

Result<PprEngine> PprEngine::Precompute(const SimilarityGraph& graph,
                                        const PprOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot precompute PPR on empty graph");
  }
  if (options.alpha <= 0.0) {
    return Status::InvalidArgument("PPR alpha must be > 0");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("PPR max_iterations must be >= 1");
  }
  PprEngine engine(graph.NormalizedAdjacency(), options);
  engine.seeds_.resize(graph.num_nodes());
  ICROWD_TRACE_SCOPE("ppr.precompute");
  ThreadPool::ParallelFor(
      graph.num_nodes(), /*num_threads=*/0,
      [&engine](size_t i) { engine.seeds_[i] = engine.SolveSeed(i); });
  return engine;
}

SparseEntries PprEngine::SolveSeed(size_t seed) const {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter seeds_solved = registry.GetCounter(
      "icrowd.ppr.seeds_solved",
      {true, "Algorithm 1 seed vectors solved (one per task)"});
  static const obs::Counter solve_iterations = registry.GetCounter(
      "icrowd.ppr.solve_iterations",
      {true, "power-iteration steps summed over all seeds"});
  static const obs::Histogram seed_support = registry.GetHistogram(
      "icrowd.ppr.seed_support", obs::ExponentialBuckets(1, 4, 8),
      {true, "nonzero entries per converged seed vector"});
  const double c = 1.0 / (1.0 + options_.alpha);        // graph weight
  const double restart = options_.alpha / (1.0 + options_.alpha);
  const size_t n = s_prime_.n();
  // Sparse power iteration of Eq. (4): p <- c * S'p + restart * e_seed,
  // using the sparse-accumulator pattern: one dense scratch array per
  // thread plus an explicit support list. All masses are strictly
  // positive, so value == 0 doubles as the "untouched" flag.
  thread_local std::vector<double> current_values;
  thread_local std::vector<double> next_values;
  if (current_values.size() < n) {
    current_values.assign(n, 0.0);
    next_values.assign(n, 0.0);
  }
  std::vector<int32_t> support;
  std::vector<int32_t> next_support;

  current_values[seed] = 1.0;
  support.push_back(static_cast<int32_t>(seed));

  const std::vector<size_t>& row_ptr = s_prime_.row_ptr();
  const std::vector<int32_t>& cols = s_prime_.cols();
  const std::vector<double>& values = s_prime_.values();

  int iterations = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++iterations;
    // c * S'p — scatter each current entry along its row (S' symmetric).
    for (int32_t u : support) {
      double scaled = c * current_values[u];
      if (scaled == 0.0) continue;
      for (size_t idx = row_ptr[u]; idx < row_ptr[u + 1]; ++idx) {
        int32_t v = cols[idx];
        if (next_values[v] == 0.0) next_support.push_back(v);
        next_values[v] += scaled * values[idx];
      }
    }
    if (next_values[seed] == 0.0) {
      next_support.push_back(static_cast<int32_t>(seed));
    }
    next_values[seed] += restart;
    // Prune tiny entries and accumulate the L1 change.
    double diff = 0.0;
    for (int32_t v : next_support) {
      if (next_values[v] < options_.prune_epsilon) next_values[v] = 0.0;
      diff += std::abs(next_values[v] - current_values[v]);
    }
    for (int32_t u : support) {
      if (next_values[u] == 0.0) diff += current_values[u];
      current_values[u] = 0.0;  // reset old iterate
    }
    support.clear();
    for (int32_t v : next_support) {
      if (next_values[v] > 0.0) {
        current_values[v] = next_values[v];
        support.push_back(v);
      }
      next_values[v] = 0.0;
    }
    next_support.clear();
    if (diff < options_.tolerance) break;
  }

  SparseEntries out;
  out.reserve(support.size());
  std::sort(support.begin(), support.end());
  for (int32_t v : support) {
    out.emplace_back(v, current_values[v]);
    current_values[v] = 0.0;  // leave the scratch clean for the next seed
  }
  seeds_solved.Increment();
  solve_iterations.Increment(static_cast<uint64_t>(iterations));
  seed_support.Observe(static_cast<double>(out.size()));
  return out;
}

std::vector<double> PprEngine::EstimateFromObserved(
    const SparseEntries& observed) const {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter estimates = registry.GetCounter(
      "icrowd.ppr.estimates",
      {true, "kernel-smoothing propagations of observed accuracies"});
  static const obs::Counter estimate_terms = registry.GetCounter(
      "icrowd.ppr.estimate_terms",
      {true, "seed-vector entries scattered across all propagations"});
  estimates.Increment();
  std::vector<double> estimate(num_tasks(), 0.0);
  uint64_t terms = 0;
  for (const auto& [task, q] : observed) {
    if (q == 0.0) continue;
    terms += seeds_[task].size();
    for (const auto& [j, v] : seeds_[task]) {
      estimate[j] += q * v;
    }
  }
  estimate_terms.Increment(terms);
  return estimate;
}

std::vector<double> PprEngine::SolveIteratively(
    const std::vector<double>& q) const {
  const double c = 1.0 / (1.0 + options_.alpha);
  const double restart = options_.alpha / (1.0 + options_.alpha);
  std::vector<double> p = q;
  std::vector<double> sp;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    s_prime_.MultiplyInto(p, &sp);
    double diff = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      double next = c * sp[i] + restart * q[i];
      diff += std::abs(next - p[i]);
      p[i] = next;
    }
    if (diff < options_.tolerance) break;
  }
  return p;
}

}  // namespace icrowd
