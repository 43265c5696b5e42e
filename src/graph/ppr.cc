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
  // using the sparse-accumulator pattern: per-thread dense value arrays
  // plus explicit support lists, all sized once per thread so a solve
  // allocates nothing but its output. All masses are strictly positive,
  // so value == 0 doubles as the "untouched" flag and each node enters a
  // support list at most once per sweep.
  thread_local std::vector<double> current_buffer;
  thread_local std::vector<double> next_buffer;
  thread_local std::vector<int32_t> support_buffer;
  thread_local std::vector<int32_t> next_support_buffer;
  if (current_buffer.size() < n) {
    current_buffer.assign(n, 0.0);
    next_buffer.assign(n, 0.0);
    // One slot past n: the branch-free appends below always write.
    support_buffer.resize(n + 1);
    next_support_buffer.resize(n + 1);
  }
  double* const current_values = current_buffer.data();
  double* const next_values = next_buffer.data();
  int32_t* const support = support_buffer.data();
  int32_t* const next_support = next_support_buffer.data();
  size_t support_size = 0;
  size_t next_size = 0;

  const size_t* const row_ptr = s_prime_.row_ptr().data();
  const int32_t* const cols = s_prime_.cols().data();
  const double* const values = s_prime_.values().data();
  const double prune_epsilon = options_.prune_epsilon;

  current_values[seed] = 1.0;
  support[support_size++] = static_cast<int32_t>(seed);

  int iterations = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++iterations;
    // c * S'p — scatter each current entry along its row (S' symmetric).
    for (size_t a = 0; a < support_size; ++a) {
      const int32_t u = support[a];
      const double scaled = c * current_values[u];
      if (scaled == 0.0) continue;
      const size_t row_end = row_ptr[u + 1];
      for (size_t idx = row_ptr[u]; idx < row_end; ++idx) {
        const int32_t v = cols[idx];
        const double x = next_values[v];
        next_support[next_size] = v;
        next_size += (x == 0.0);
        next_values[v] = x + scaled * values[idx];
      }
    }
    next_support[next_size] = static_cast<int32_t>(seed);
    next_size += (next_values[seed] == 0.0);
    next_values[seed] += restart;
    // Prune tiny entries and accumulate the L1 change.
    double diff = 0.0;
    for (size_t a = 0; a < next_size; ++a) {
      const int32_t v = next_support[a];
      if (next_values[v] < prune_epsilon) next_values[v] = 0.0;
      diff += std::abs(next_values[v] - current_values[v]);
    }
    for (size_t a = 0; a < support_size; ++a) {
      const int32_t u = support[a];
      if (next_values[u] == 0.0) diff += current_values[u];
      current_values[u] = 0.0;  // reset old iterate
    }
    // Every current value is 0 now, so a pruned entry may be copied too.
    support_size = 0;
    for (size_t a = 0; a < next_size; ++a) {
      const int32_t v = next_support[a];
      const double x = next_values[v];
      current_values[v] = x;
      support[support_size] = v;
      support_size += (x > 0.0);
      next_values[v] = 0.0;
    }
    next_size = 0;
    if (diff < options_.tolerance) break;
  }

  SparseEntries out;
  out.reserve(support_size);
  std::sort(support, support + support_size);
  for (size_t a = 0; a < support_size; ++a) {
    const int32_t v = support[a];
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
