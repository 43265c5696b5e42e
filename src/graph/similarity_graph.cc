#include "graph/similarity_graph.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "text/similarity.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace icrowd {

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      return "Jaccard";
    case SimilarityMeasure::kCosineTfIdf:
      return "Cos(tf-idf)";
    case SimilarityMeasure::kCosineTopic:
      return "Cos(topic)";
    case SimilarityMeasure::kEuclidean:
      return "Euclidean";
  }
  return "?";
}

void SimilarityGraph::AddUndirectedEdge(int32_t u, int32_t v, double weight) {
  adjacency_[u].push_back({v, weight});
  adjacency_[v].push_back({u, weight});
  ++num_edges_;
}

void SimilarityGraph::SortAdjacency() {
  for (auto& edges : adjacency_) {
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) {
                return a.neighbor < b.neighbor;
              });
  }
}

void SimilarityGraph::ApplyNeighborCap(size_t max_neighbors) {
  if (max_neighbors == 0) return;
  // An edge survives iff it ranks within the top `max_neighbors` by weight
  // on at least one endpoint; this keeps the graph symmetric.
  std::set<std::pair<int32_t, int32_t>> keep;
  for (size_t u = 0; u < adjacency_.size(); ++u) {
    std::vector<Edge> edges = adjacency_[u];
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.weight > b.weight;
    });
    size_t limit = std::min(max_neighbors, edges.size());
    const int32_t ui = static_cast<int32_t>(u);
    for (size_t i = 0; i < limit; ++i) {
      int32_t v = edges[i].neighbor;
      keep.insert({std::min(ui, v), std::max(ui, v)});
    }
  }
  std::vector<std::vector<Edge>> pruned(adjacency_.size());
  size_t edges_kept = 0;
  for (size_t u = 0; u < adjacency_.size(); ++u) {
    const int32_t ui = static_cast<int32_t>(u);
    for (const Edge& e : adjacency_[u]) {
      int32_t a = std::min(ui, e.neighbor);
      int32_t b = std::max(ui, e.neighbor);
      if (keep.count({a, b})) {
        pruned[u].push_back(e);
        if (static_cast<int32_t>(u) < e.neighbor) ++edges_kept;
      }
    }
  }
  adjacency_ = std::move(pruned);
  num_edges_ = edges_kept;
}

template <typename TermsOf, typename Score>
SimilarityGraph SimilarityGraph::BuildFromSharedTerms(
    size_t n, size_t vocabulary_size, const TermsOf& terms_of,
    const Score& similarity, double threshold, size_t max_neighbors) {
  // Inverted index in CSR form: postings[offset[t], offset[t + 1]) lists
  // the nodes holding term t, ascending (Bayardo et al., WWW 2007).
  std::vector<size_t> offset(vocabulary_size + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t t : terms_of(i)) ++offset[t + 1];
  }
  for (size_t t = 0; t < vocabulary_size; ++t) offset[t + 1] += offset[t];
  std::vector<int32_t> postings(offset[vocabulary_size]);
  // cursor[t] ends at offset[t + 1]; during the scan below it points at
  // the current node's own entry in each of its terms' postings.
  std::vector<size_t> cursor(offset.begin(), offset.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t t : terms_of(i)) {
      postings[cursor[t]++] = static_cast<int32_t>(i);
    }
  }
  std::copy(offset.begin(), offset.end() - 1, cursor.begin());

  // Edges must enter the adjacency in the all-pairs order (i asc, then j
  // asc): ApplyNeighborCap ranks by weight with an unstable sort, so a
  // capped graph depends on it.
  SimilarityGraph graph(n);
  std::vector<int32_t> last_seen(n, -1);
  std::vector<int32_t> candidates;
  for (size_t i = 0; i < n; ++i) {
    const int32_t node = static_cast<int32_t>(i);
    candidates.clear();
    for (int32_t t : terms_of(i)) {
      const size_t end = offset[t + 1];
      for (size_t k = ++cursor[t]; k < end; ++k) {
        const int32_t j = postings[k];
        if (last_seen[j] != node) {
          last_seen[j] = node;
          candidates.push_back(j);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (int32_t j : candidates) {
      double s = similarity(i, static_cast<size_t>(j));
      if (s >= threshold && s > 0.0) graph.AddUndirectedEdge(node, j, s);
    }
  }
  graph.ApplyNeighborCap(max_neighbors);
  graph.SortAdjacency();
  return graph;
}

Result<SimilarityGraph> SimilarityGraph::Build(
    const Dataset& dataset, const GraphBuildOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build graph on empty dataset");
  }
  if (options.measure == SimilarityMeasure::kEuclidean) {
    const size_t n = dataset.size();
    size_t dim = dataset.task(0).features.size();
    if (dim == 0) {
      return Status::InvalidArgument(
          "Euclidean measure requires task feature vectors");
    }
    for (const Microtask& t : dataset.tasks()) {
      if (t.features.size() != dim) {
        return Status::InvalidArgument(
            "inconsistent feature dimensionality across tasks");
      }
    }
    // tau_d: max pairwise distance (the paper's normalizer).
    double max_dist = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        max_dist = std::max(
            max_dist,
            EuclideanDistance(dataset.task(static_cast<TaskId>(i)).features,
                              dataset.task(static_cast<TaskId>(j)).features));
      }
    }
    if (max_dist == 0.0) max_dist = 1.0;  // all tasks coincide
    return BuildFromFunction(
        n,
        [&](size_t i, size_t j) {
          return EuclideanSimilarity(
              dataset.task(static_cast<TaskId>(i)).features,
              dataset.task(static_cast<TaskId>(j)).features, max_dist);
        },
        options.threshold, options.max_neighbors);
  }
  return BuildFromTexts(dataset.Texts(), options);
}

Result<SimilarityGraph> SimilarityGraph::BuildFromTexts(
    const std::vector<std::string>& texts, const GraphBuildOptions& options) {
  if (texts.empty()) {
    return Status::InvalidArgument("cannot build graph on empty text set");
  }
  const size_t n = texts.size();
  Tokenizer tokenizer;

  switch (options.measure) {
    case SimilarityMeasure::kJaccard: {
      Vocabulary vocab;
      std::vector<std::vector<int32_t>> terms(n);
      for (size_t i = 0; i < n; ++i) {
        for (const std::string& token : tokenizer.Tokenize(texts[i])) {
          terms[i].push_back(vocab.GetOrAdd(token));
        }
        std::sort(terms[i].begin(), terms[i].end());
        terms[i].erase(std::unique(terms[i].begin(), terms[i].end()),
                       terms[i].end());
      }
      return BuildFromSharedTerms(
          n, vocab.size(),
          [&](size_t i) -> const std::vector<int32_t>& { return terms[i]; },
          [&](size_t i, size_t j) {
            return SortedSetJaccard(terms[i], terms[j]);
          },
          options.threshold, options.max_neighbors);
    }
    case SimilarityMeasure::kCosineTfIdf: {
      // A task with no terms has norm 0 and is never a candidate; every
      // other norm is positive (weights are count * idf with idf >= 1).
      TfIdfModel model(texts, tokenizer);
      std::vector<double> norms(n);
      for (size_t i = 0; i < n; ++i) norms[i] = model.VectorOf(i).Norm();
      return BuildFromSharedTerms(
          n, model.vocabulary().size(),
          [&](size_t i) -> const std::vector<int32_t>& {
            return model.VectorOf(i).ids;
          },
          [&](size_t i, size_t j) {
            return Dot(model.VectorOf(i), model.VectorOf(j)) /
                   (norms[i] * norms[j]);
          },
          options.threshold, options.max_neighbors);
    }
    case SimilarityMeasure::kCosineTopic: {
      auto lda = LdaModel::Fit(texts, tokenizer, options.lda);
      if (!lda.ok()) return lda.status();
      return BuildFromFunction(
          n,
          [&](size_t i, size_t j) { return lda->TopicCosine(i, j); },
          options.threshold, options.max_neighbors);
    }
    case SimilarityMeasure::kEuclidean:
      return Status::InvalidArgument(
          "Euclidean measure needs feature vectors; use Build(Dataset)");
  }
  return Status::Internal("unknown similarity measure");
}

SimilarityGraph SimilarityGraph::BuildFromFunction(
    size_t n, const std::function<double(size_t, size_t)>& similarity,
    double threshold, size_t max_neighbors) {
  SimilarityGraph graph(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double s = similarity(i, j);
      if (s >= threshold && s > 0.0) {
        graph.AddUndirectedEdge(static_cast<int32_t>(i),
                                static_cast<int32_t>(j), s);
      }
    }
  }
  graph.ApplyNeighborCap(max_neighbors);
  graph.SortAdjacency();
  return graph;
}

SimilarityGraph SimilarityGraph::FromEdges(
    size_t n, const std::vector<std::tuple<int32_t, int32_t, double>>& edges) {
  SimilarityGraph graph(n);
  for (const auto& [u, v, w] : edges) {
    if (u == v) continue;
    graph.AddUndirectedEdge(u, v, w);
  }
  graph.SortAdjacency();
  return graph;
}

double SimilarityGraph::Weight(size_t u, size_t v) const {
  const std::vector<Edge>& edges = adjacency_[u];
  auto it = std::lower_bound(
      edges.begin(), edges.end(), static_cast<int32_t>(v),
      [](const Edge& e, int32_t target) { return e.neighbor < target; });
  if (it == edges.end() || it->neighbor != static_cast<int32_t>(v)) {
    return 0.0;
  }
  return it->weight;
}

double SimilarityGraph::AverageDegree() const {
  if (adjacency_.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(adjacency_.size());
}

SparseMatrix SimilarityGraph::AdjacencyMatrix() const {
  std::vector<SparseMatrix::Triplet> triplets;
  triplets.reserve(2 * num_edges_);
  for (size_t u = 0; u < adjacency_.size(); ++u) {
    for (const Edge& e : adjacency_[u]) {
      triplets.emplace_back(static_cast<int32_t>(u), e.neighbor, e.weight);
    }
  }
  return SparseMatrix(adjacency_.size(), std::move(triplets));
}

SparseMatrix SimilarityGraph::NormalizedAdjacency() const {
  return AdjacencyMatrix().SymmetricNormalized();
}

std::vector<int> SimilarityGraph::ConnectedComponents(
    int* num_components) const {
  std::vector<int> label(adjacency_.size(), -1);
  int next = 0;
  for (size_t start = 0; start < adjacency_.size(); ++start) {
    if (label[start] != -1) continue;
    int component = next++;
    std::queue<size_t> frontier;
    frontier.push(start);
    label[start] = component;
    while (!frontier.empty()) {
      size_t u = frontier.front();
      frontier.pop();
      for (const Edge& e : adjacency_[u]) {
        if (label[e.neighbor] == -1) {
          label[e.neighbor] = component;
          frontier.push(e.neighbor);
        }
      }
    }
  }
  if (num_components != nullptr) *num_components = next;
  return label;
}

}  // namespace icrowd
