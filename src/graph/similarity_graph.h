#ifndef ICROWD_GRAPH_SIMILARITY_GRAPH_H_
#define ICROWD_GRAPH_SIMILARITY_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/sparse_matrix.h"
#include "model/dataset.h"
#include "text/lda.h"

namespace icrowd {

/// Pairwise similarity measures evaluated in §D.1 (Figure 12), plus the
/// Euclidean measure for feature-vector microtasks (§3.3.2).
enum class SimilarityMeasure {
  kJaccard,
  kCosineTfIdf,
  kCosineTopic,  // LDA topic distributions; the paper's default
  kEuclidean,    // requires Microtask::features
};

const char* SimilarityMeasureName(SimilarityMeasure measure);

struct GraphBuildOptions {
  SimilarityMeasure measure = SimilarityMeasure::kCosineTopic;
  /// Pairs below this similarity get no edge (§D.1's threshold; paper
  /// default 0.8 for Cos(topic), 0.5 in the Figure 3 Jaccard example).
  double threshold = 0.8;
  /// 0 = unlimited; otherwise each node keeps only its `max_neighbors`
  /// strongest edges (the Fig. 10 "maximal number of neighbors" knob).
  size_t max_neighbors = 0;
  /// LDA configuration when measure == kCosineTopic.
  LdaOptions lda;
};

/// The microtask similarity graph G = (T, E) of §3: weighted, undirected;
/// an edge (t_i, t_j, s_ij) says the tasks live in similar domains, so a
/// worker's accuracy should be comparable on both.
class SimilarityGraph {
 public:
  struct Edge {
    int32_t neighbor;
    double weight;
  };

  /// Builds by keeping the pairs of tasks in `dataset` whose similarity
  /// under the chosen measure is positive and at/above the threshold.
  /// Jaccard and Cos(tf-idf) score only the pairs that share a term,
  /// found through an inverted term index: every other pair scores exactly
  /// 0 under both, so the edge lists equal an all-pairs build bit for bit.
  /// Cos(topic) and Euclidean score every pair.
  static Result<SimilarityGraph> Build(const Dataset& dataset,
                                       const GraphBuildOptions& options);

  /// As Build, but on raw texts (kEuclidean is not available here).
  static Result<SimilarityGraph> BuildFromTexts(
      const std::vector<std::string>& texts, const GraphBuildOptions& options);

  /// Builds from an arbitrary symmetric similarity function, evaluated on
  /// every node pair.
  static SimilarityGraph BuildFromFunction(
      size_t n, const std::function<double(size_t, size_t)>& similarity,
      double threshold, size_t max_neighbors = 0);

  /// Builds from explicit undirected edges (i < j). Used by the Fig. 10
  /// scalability workload, which wires random bounded-degree graphs.
  static SimilarityGraph FromEdges(
      size_t n, const std::vector<std::tuple<int32_t, int32_t, double>>& edges);

  size_t num_nodes() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }

  const std::vector<Edge>& Neighbors(size_t node) const {
    return adjacency_[node];
  }

  /// Edge weight between u and v; 0 when absent.
  double Weight(size_t u, size_t v) const;

  double AverageDegree() const;

  /// The symmetric similarity matrix S (diagonal excluded).
  SparseMatrix AdjacencyMatrix() const;
  /// S' = D^{-1/2} S D^{-1/2}.
  SparseMatrix NormalizedAdjacency() const;

  /// Component label per node; `num_components` (optional) receives the
  /// count. Domains typically come out as separate components (Figure 3).
  std::vector<int> ConnectedComponents(int* num_components = nullptr) const;

 private:
  explicit SimilarityGraph(size_t n) : adjacency_(n) {}

  /// As BuildFromFunction, but scores only the pairs whose term sets
  /// share an id. `terms_of(i)` is node i's ascending, duplicate-free term
  /// ids, each below `vocabulary_size`.
  template <typename TermsOf, typename Score>
  static SimilarityGraph BuildFromSharedTerms(size_t n,
                                              size_t vocabulary_size,
                                              const TermsOf& terms_of,
                                              const Score& similarity,
                                              double threshold,
                                              size_t max_neighbors);

  void AddUndirectedEdge(int32_t u, int32_t v, double weight);
  void ApplyNeighborCap(size_t max_neighbors);
  void SortAdjacency();

  std::vector<std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace icrowd

#endif  // ICROWD_GRAPH_SIMILARITY_GRAPH_H_
