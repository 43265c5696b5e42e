#ifndef ICROWD_GRAPH_PPR_H_
#define ICROWD_GRAPH_PPR_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/similarity_graph.h"
#include "io/framing.h"

namespace icrowd {

/// Sparse accuracy/score vector: (task id, value) pairs sorted by id.
using SparseEntries = std::vector<std::pair<int32_t, double>>;

/// Task ids [start, start + length) of a stored seed vector.
struct SeedRun {
  int32_t start;
  int32_t length;
};

/// Read-only view of one stored seed vector: its values in task-id order,
/// and the runs of consecutive task ids they cover, in the same order.
/// Iterating it yields the (task id, value) pairs of a SparseEntries;
/// kernels that scatter a whole seed walk runs() over values() instead,
/// one contiguous span per run.
class SeedVectorView {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<int32_t, double>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    Iterator(const SeedRun* run, const double* value)
        : run_(run), value_(value) {}
    value_type operator*() const { return {run_->start + offset_, *value_}; }
    Iterator& operator++() {
      ++value_;
      if (++offset_ == run_->length) {
        ++run_;
        offset_ = 0;
      }
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return value_ == other.value_;
    }

   private:
    const SeedRun* run_;
    int32_t offset_ = 0;
    const double* value_;
  };

  SeedVectorView(std::span<const SeedRun> runs, std::span<const double> values)
      : runs_(runs), values_(values) {}

  size_t size() const { return values_.size(); }
  std::span<const SeedRun> runs() const { return runs_; }
  std::span<const double> values() const { return values_; }
  Iterator begin() const { return {runs_.data(), values_.data()}; }
  Iterator end() const {
    return {runs_.data() + runs_.size(), values_.data() + values_.size()};
  }

 private:
  std::span<const SeedRun> runs_;
  std::span<const double> values_;
};

struct PprOptions {
  /// The paper's α balancing graph smoothness vs. fidelity to the observed
  /// accuracies (Eq. 2). Must be > 0. Default 1.0 per §D.2.
  double alpha = 1.0;
  int max_iterations = 200;
  /// L1 convergence tolerance for the Eq. (4) iteration.
  double tolerance = 1e-10;
  /// Entries below this are dropped from stored seed vectors; raising it
  /// trades accuracy for memory on very large graphs (Fig. 10 workloads).
  double prune_epsilon = 1e-9;

  bool operator==(const PprOptions&) const = default;
};

/// Personalized-PageRank engine implementing §3.1. Solves
///     p = 1/(1+α) · S'p + α/(1+α) · q                      (Eq. 4)
/// whose fixed point is the optimum of Eq. (2) (Lemma 1/2). The offline
/// phase precomputes the per-seed solutions p_{t_i} (q = e_i); the online
/// phase uses linearity (Lemma 3): p* = Σ_i q_i · p_{t_i}, giving O(|T|)
/// estimation per worker (Algorithm 1).
class PprEngine {
 public:
  /// Runs the offline phase of Algorithm 1 over `graph`, one seed per
  /// task spread over every hardware thread.
  static Result<PprEngine> Precompute(const SimilarityGraph& graph,
                                      const PprOptions& options);

  size_t num_tasks() const { return seeds_.size(); }
  double alpha() const { return options_.alpha; }
  const PprOptions& options() const { return options_; }

  /// The converged p_{t_i} for seed task i, ε-pruned, sorted by task id.
  /// Always contains the seed itself with value >= α/(1+α).
  SeedVectorView SeedVector(size_t i) const {
    return {seeds_[i].runs, seeds_[i].values};
  }

  /// Bytes held by the stored seed vectors (values and runs).
  size_t seed_bytes() const;

  /// Online estimation via Lemma 3. `observed` holds the (task, q value)
  /// pairs of the worker's observed accuracies on globally completed tasks;
  /// returns a dense length-|T| estimate.
  std::vector<double> EstimateFromObserved(const SparseEntries& observed) const;

  /// Counts `propagations` Lemma 3 evaluations that scattered `terms` seed
  /// entries (icrowd.ppr.estimates / estimate_terms), for callers that run
  /// the scatter over SeedVector() themselves.
  static void CountEstimates(uint64_t propagations, uint64_t terms);

  /// Streams the offline phase's output — S' and every seed vector — as
  /// raw little-endian bits, so Decode() reproduces the engine bit for bit
  /// without solving a seed.
  Status Encode(FrameStreamWriter* out) const;

  /// Reads what Encode() wrote for a graph of `num_tasks` nodes solved
  /// under `options`. Refuses, with a Status, a stream for another size or
  /// options, a malformed S', or a seed vector whose ids are not sorted and
  /// in range, whose values are not finite and positive, or that lacks its
  /// own seed at >= α/(1+α).
  static Result<PprEngine> Decode(FrameStreamReader* in, size_t num_tasks,
                                  const PprOptions& options);

  /// Reference solver: direct Eq. (4) power iteration from an arbitrary
  /// dense q. Exact up to `tolerance`; used to validate Lemma 3 and by
  /// callers that need one-off solves.
  std::vector<double> SolveIteratively(const std::vector<double>& q) const;

 private:
  PprEngine(SparseMatrix normalized, PprOptions options)
      : s_prime_(std::move(normalized)), options_(options) {}

  /// A seed vector as stored: 8 bytes per value plus 8 per run, where a
  /// (task id, value) pair takes 16.
  struct Seed {
    std::vector<SeedRun> runs;
    std::vector<double> values;
  };

  /// Sparse Eq. (4) iteration from a single seed, pruning per sweep.
  SparseEntries SolveSeed(size_t seed) const;

  SparseMatrix s_prime_;
  PprOptions options_;
  std::vector<Seed> seeds_;
};

}  // namespace icrowd

#endif  // ICROWD_GRAPH_PPR_H_
