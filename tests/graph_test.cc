#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "datagen/scalability.h"
#include "datagen/yahooqa.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "graph/sparse_matrix.h"
#include "text/similarity.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace icrowd {
namespace {

// ---------------------------------------------------------- SparseMatrix --

TEST(SparseMatrixTest, BuildsFromTriplets) {
  SparseMatrix m(3, {{0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 5.0}});
  EXPECT_EQ(m.n(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, MergesDuplicateEntries) {
  SparseMatrix m(2, {{0, 1, 1.5}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 4.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix m(3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 0, 4.0}});
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1.0);
}

TEST(SparseMatrixTest, RowSumAndEmptyRows) {
  SparseMatrix m(3, {{0, 1, 2.0}, {0, 2, 3.0}});
  EXPECT_DOUBLE_EQ(m.RowSum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 0.0);
  EXPECT_DOUBLE_EQ(m.RowSum(2), 0.0);
}

TEST(SparseMatrixTest, SymmetricNormalizationFormula) {
  // Path graph 0-1-2 with unit weights. D = diag(1, 2, 1).
  SparseMatrix s(3, {{0, 1, 1.0},
                     {1, 0, 1.0},
                     {1, 2, 1.0},
                     {2, 1, 1.0}});
  SparseMatrix n = s.SymmetricNormalized();
  EXPECT_NEAR(n.At(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(n.At(1, 0), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(n.At(1, 2), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(SparseMatrixTest, NormalizationHandlesIsolatedRows) {
  SparseMatrix s(3, {{0, 1, 1.0}, {1, 0, 1.0}});  // node 2 isolated
  SparseMatrix n = s.SymmetricNormalized();
  EXPECT_DOUBLE_EQ(n.RowSum(2), 0.0);
  EXPECT_NEAR(n.At(0, 1), 1.0, 1e-12);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m(4, {});
  EXPECT_EQ(m.nnz(), 0u);
  std::vector<double> y = m.Multiply({1, 2, 3, 4});
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ------------------------------------------------------- SimilarityGraph --

Dataset SmallTextDataset() {
  Dataset ds("small");
  for (const char* text :
       {"iphone 4 wifi 32gb", "iphone 4 wifi 16gb", "iphone four case",
        "ipod touch wifi", "ipod nano headphone", "ipod touch 32gb"}) {
    Microtask t;
    t.text = text;
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  return ds;
}

TEST(SimilarityGraphTest, JaccardBuildRespectsThreshold) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.5;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), ds.size());
  // t0-t1 share 3 of 5 tokens -> 0.6 edge; t0-t4 share none.
  EXPECT_GT(graph->Weight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(graph->Weight(0, 4), 0.0);
  for (size_t u = 0; u < graph->num_nodes(); ++u) {
    for (const auto& e : graph->Neighbors(u)) {
      EXPECT_GE(e.weight, options.threshold);
    }
  }
}

TEST(SimilarityGraphTest, GraphIsSymmetric) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.2;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  for (size_t u = 0; u < graph->num_nodes(); ++u) {
    for (const auto& e : graph->Neighbors(u)) {
      EXPECT_DOUBLE_EQ(graph->Weight(e.neighbor, u), e.weight);
    }
  }
}

TEST(SimilarityGraphTest, EmptyDatasetRejected) {
  Dataset empty("empty");
  EXPECT_FALSE(SimilarityGraph::Build(empty, {}).ok());
  EXPECT_FALSE(SimilarityGraph::BuildFromTexts({}, {}).ok());
}

TEST(SimilarityGraphTest, EuclideanRequiresFeatures) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kEuclidean;
  EXPECT_FALSE(SimilarityGraph::Build(ds, options).ok());
}

TEST(SimilarityGraphTest, EuclideanBuildOnPoiFeatures) {
  Dataset ds("poi");
  // Two clusters of points-of-interest (§3.3.2).
  for (auto [x, y] : std::initializer_list<std::pair<double, double>>{
           {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {5.0, 5.0}, {5.1, 5.0}}) {
    Microtask t;
    t.text = "poi";
    t.features = {x, y};
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kEuclidean;
  options.threshold = 0.9;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->Weight(0, 1), 0.0);
  EXPECT_GT(graph->Weight(3, 4), 0.0);
  EXPECT_DOUBLE_EQ(graph->Weight(0, 3), 0.0);  // across clusters
  int components = 0;
  graph->ConnectedComponents(&components);
  EXPECT_EQ(components, 2);
}

TEST(SimilarityGraphTest, ConnectedComponentsOnDisjointCliques) {
  SimilarityGraph g = SimilarityGraph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}});
  int components = 0;
  std::vector<int> labels = g.ConnectedComponents(&components);
  EXPECT_EQ(components, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[5], labels[0]);
}

TEST(SimilarityGraphTest, MaxNeighborsCapsDegreeButKeepsSymmetry) {
  // Build a dense graph and cap neighbors.
  auto graph = SimilarityGraph::BuildFromFunction(
      20, [](size_t, size_t) { return 0.9; }, 0.5, /*max_neighbors=*/3);
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    for (const auto& e : graph.Neighbors(u)) {
      EXPECT_GT(graph.Weight(e.neighbor, u), 0.0);
    }
  }
  // Average degree must be far below the dense 19.
  EXPECT_LT(graph.AverageDegree(), 8.0);
}

TEST(SimilarityGraphTest, FromEdgesIgnoresSelfLoops) {
  SimilarityGraph g =
      SimilarityGraph::FromEdges(3, {{0, 0, 1.0}, {0, 1, 0.7}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(SimilarityGraphTest, AdjacencyMatrixMatchesWeights) {
  SimilarityGraph g =
      SimilarityGraph::FromEdges(3, {{0, 1, 0.5}, {1, 2, 0.25}});
  SparseMatrix m = g.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 0.0);
}

TEST(SimilarityGraphTest, MeasureNames) {
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kJaccard), "Jaccard");
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kCosineTopic),
               "Cos(topic)");
}

// ------------------------------------- candidate-pair build exactness --

// The string Jaccard as it stood before the graph scored candidate pairs
// only: two hash sets per pair. Kept here as the all-pairs oracle.
double ReferenceJaccard(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::unordered_set<std::string> set_a(a.begin(), a.end());
  std::unordered_set<std::string> set_b(b.begin(), b.end());
  size_t intersection = 0;
  for (const std::string& tok : set_a) {
    if (set_b.count(tok)) ++intersection;
  }
  size_t uni = set_a.size() + set_b.size() - intersection;
  if (uni == 0) return 0.0;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

enum class Corpus { kYahooQa, kItemCompare, kEntity, kAdversarial };

struct CorpusCase {
  Corpus corpus;
  size_t size;  // tasks (YahooQA, adversarial), per domain or per family
  uint64_t seed;
};

std::string CorpusLabel(const CorpusCase& c) {
  static const char* kNames[] = {"YahooQa", "ItemCompare", "Entity",
                                 "Adversarial"};
  return std::string(kNames[static_cast<int>(c.corpus)]) +
         std::to_string(c.size) + "_seed" + std::to_string(c.seed);
}

void PrintTo(const CorpusCase& c, std::ostream* os) { *os << CorpusLabel(c); }

std::string CorpusCaseName(const ::testing::TestParamInfo<CorpusCase>& info) {
  return CorpusLabel(info.param);
}

// Duplicates, repeated tokens, all-stopword, punctuation-only and empty
// texts over a vocabulary of eight words, three of them stop words: many
// pairs tie on weight, which is where a neighbor cap depends on edge order.
std::vector<std::string> AdversarialTexts(size_t n, uint64_t seed) {
  static const char* kWords[] = {"apple", "banana", "cherry", "date",
                                 "Apple", "the",    "and",    "of"};
  std::vector<std::string> texts = {"", "the and of", "!!! ...", "apple",
                                    "apple apple apple", "APPLE, apple!"};
  Rng rng(seed);
  while (texts.size() < n) {
    if (rng.Uniform() < 0.2) {
      texts.push_back(texts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(texts.size()) - 1))]);
      continue;
    }
    std::string text;
    for (int64_t k = rng.UniformInt(0, 6); k > 0; --k) {
      text += kWords[rng.UniformInt(0, 7)];
      text += rng.Uniform() < 0.5 ? " " : ", ";
    }
    texts.push_back(text);
  }
  texts.resize(n);
  return texts;
}

std::vector<std::string> CorpusTexts(const CorpusCase& c) {
  switch (c.corpus) {
    case Corpus::kYahooQa: {
      YahooQaOptions options;
      options.num_tasks = c.size;
      options.seed = c.seed;
      return GenerateYahooQa(options).MoveValueOrDie().Texts();
    }
    case Corpus::kItemCompare: {
      ItemCompareOptions options;
      options.tasks_per_domain = c.size;
      options.seed = c.seed;
      return GenerateItemCompare(options).MoveValueOrDie().Texts();
    }
    case Corpus::kEntity: {
      EntityResolutionOptions options;
      options.tasks_per_family = c.size;
      options.seed = c.seed;
      return GenerateEntityResolution(options).MoveValueOrDie().Texts();
    }
    case Corpus::kAdversarial:
      return AdversarialTexts(c.size, c.seed);
  }
  return {};
}

void ExpectSameGraph(const SimilarityGraph& expected,
                     const SimilarityGraph& actual, const std::string& what) {
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes()) << what;
  ASSERT_EQ(expected.num_edges(), actual.num_edges()) << what;
  for (size_t u = 0; u < expected.num_nodes(); ++u) {
    const auto& want = expected.Neighbors(u);
    const auto& got = actual.Neighbors(u);
    ASSERT_EQ(want.size(), got.size()) << what << " node " << u;
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(want[k].neighbor, got[k].neighbor) << what << " node " << u;
      ASSERT_EQ(want[k].weight, got[k].weight) << what << " node " << u;
    }
  }
}

using ExactnessCase = std::tuple<CorpusCase, SimilarityMeasure>;

std::string ExactnessCaseName(
    const ::testing::TestParamInfo<ExactnessCase>& info) {
  return CorpusLabel(std::get<0>(info.param)) +
         (std::get<1>(info.param) == SimilarityMeasure::kJaccard ? "_Jaccard"
                                                                 : "_TfIdf");
}

class GraphExactnessTest : public ::testing::TestWithParam<ExactnessCase> {};

// Build() scores only the pairs that share a term; the all-pairs
// BuildFromFunction over the reference measure must give the same
// adjacency lists with == weights at every threshold and neighbor cap.
TEST_P(GraphExactnessTest, CandidatePairsMatchAllPairs) {
  const auto& [corpus, measure] = GetParam();
  const std::vector<std::string> texts = CorpusTexts(corpus);
  const size_t n = texts.size();
  ASSERT_GT(n, 0u);
  Tokenizer tokenizer;
  std::vector<std::vector<std::string>> tokens(n);
  for (size_t i = 0; i < n; ++i) tokens[i] = tokenizer.Tokenize(texts[i]);
  TfIdfModel tfidf(texts, tokenizer);
  // Each reference similarity is evaluated once per pair, into a dense
  // upper triangle the threshold and cap sweep reads back.
  std::vector<double> reference(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      reference[i * n + j] =
          measure == SimilarityMeasure::kJaccard
              ? ReferenceJaccard(tokens[i], tokens[j])
              : CosineSimilarity(tfidf.VectorOf(i), tfidf.VectorOf(j));
    }
  }
  for (double threshold : {0.0, 0.1, 0.3, 0.5, 1.0}) {
    for (size_t max_neighbors : {size_t{0}, size_t{3}, size_t{40}}) {
      const std::string what = "threshold " + std::to_string(threshold) +
                               " cap " + std::to_string(max_neighbors);
      SimilarityGraph expected = SimilarityGraph::BuildFromFunction(
          n, [&](size_t i, size_t j) { return reference[i * n + j]; },
          threshold, max_neighbors);
      GraphBuildOptions options;
      options.measure = measure;
      options.threshold = threshold;
      options.max_neighbors = max_neighbors;
      auto actual = SimilarityGraph::BuildFromTexts(texts, options);
      ASSERT_TRUE(actual.ok()) << what;
      ExpectSameGraph(expected, *actual, what);
    }
  }
}

// The string overload now sorts and merges; it must give the hash-set
// reference's double on every pair.
TEST(JaccardExactnessTest, StringOverloadMatchesReference) {
  Tokenizer tokenizer;
  for (const CorpusCase& c : {CorpusCase{Corpus::kAdversarial, 200, 4},
                              CorpusCase{Corpus::kYahooQa, 110, 13}}) {
    std::vector<std::vector<std::string>> tokens;
    for (const std::string& text : CorpusTexts(c)) {
      tokens.push_back(tokenizer.Tokenize(text));
    }
    for (size_t i = 0; i < tokens.size(); ++i) {
      for (size_t j = i; j < tokens.size(); ++j) {
        ASSERT_EQ(JaccardSimilarity(tokens[i], tokens[j]),
                  ReferenceJaccard(tokens[i], tokens[j]))
            << CorpusLabel(c) << " pair " << i << ", " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, GraphExactnessTest,
    ::testing::Combine(
        ::testing::Values(CorpusCase{Corpus::kYahooQa, 110, 13},
                          CorpusCase{Corpus::kYahooQa, 40, 5},
                          CorpusCase{Corpus::kItemCompare, 90, 11},
                          CorpusCase{Corpus::kItemCompare, 4, 3},
                          CorpusCase{Corpus::kEntity, 4, 23},
                          CorpusCase{Corpus::kEntity, 30, 23},
                          CorpusCase{Corpus::kEntity, 120, 7},
                          CorpusCase{Corpus::kEntity, 400, 23},
                          CorpusCase{Corpus::kAdversarial, 60, 1},
                          CorpusCase{Corpus::kAdversarial, 300, 2}),
        ::testing::Values(SimilarityMeasure::kJaccard,
                          SimilarityMeasure::kCosineTfIdf)),
    ExactnessCaseName);

// ------------------------------------------------------------------- PPR --

SimilarityGraph TwoClusterGraph() {
  // Two triangles joined by nothing: clusters {0,1,2} and {3,4,5}.
  return SimilarityGraph::FromEdges(6, {{0, 1, 1.0},
                                        {1, 2, 1.0},
                                        {0, 2, 1.0},
                                        {3, 4, 1.0},
                                        {4, 5, 1.0},
                                        {3, 5, 1.0}});
}

TEST(PprTest, RejectsBadOptions) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.alpha = 0.0;
  EXPECT_FALSE(PprEngine::Precompute(g, options).ok());
  options = PprOptions();
  options.max_iterations = 0;
  EXPECT_FALSE(PprEngine::Precompute(g, options).ok());
  EXPECT_FALSE(
      PprEngine::Precompute(SimilarityGraph::FromEdges(0, {}), {}).ok());
}

// Every (task id, value) pair a stored seed vector yields, in order.
SparseEntries Entries(const SeedVectorView& seed) {
  return SparseEntries(seed.begin(), seed.end());
}

// == on the pairs compares values as doubles; this pins their bits too.
bool SameValueBits(const SparseEntries& a, const SparseEntries& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].first != b[k].first ||
        std::memcmp(&a[k].second, &b[k].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The runs of a stored seed are nonempty, ascending and maximal (no two
// touch), and cover exactly its values.
void ExpectMaximalRuns(const SeedVectorView& seed) {
  size_t covered = 0;
  const SeedRun* previous = nullptr;
  for (const SeedRun& run : seed.runs()) {
    ASSERT_GT(run.length, 0);
    if (previous != nullptr) {
      ASSERT_GT(run.start, previous->start + previous->length);
    }
    covered += static_cast<size_t>(run.length);
    previous = &run;
  }
  ASSERT_EQ(covered, seed.size());
  ASSERT_EQ(seed.values().size(), seed.size());
}

TEST(PprTest, SeedVectorContainsSeedWithRestartMass) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const SparseEntries seed = Entries(engine->SeedVector(i));
    auto it = std::find_if(seed.begin(), seed.end(), [&](const auto& e) {
      return e.first == static_cast<int32_t>(i);
    });
    ASSERT_NE(it, seed.end());
    // Self mass at least the restart probability alpha/(1+alpha).
    EXPECT_GE(it->second, options.alpha / (1.0 + options.alpha) - 1e-9);
  }
}

TEST(PprTest, MassStaysWithinCluster) {
  SimilarityGraph g = TwoClusterGraph();
  auto engine = PprEngine::Precompute(g, {});
  ASSERT_TRUE(engine.ok());
  for (const auto& [task, mass] : engine->SeedVector(0)) {
    EXPECT_LT(task, 3);  // nothing leaks into the other cluster
    EXPECT_GT(mass, 0.0);
  }
}

TEST(PprTest, SeedSolutionSatisfiesFixedPointEquation) {
  // Lemma 1/2: the converged p solves p = c S'p + (1-c) q.
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.tolerance = 1e-14;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  SparseMatrix s_prime = g.NormalizedAdjacency();
  const double c = 1.0 / (1.0 + options.alpha);
  const double restart = options.alpha / (1.0 + options.alpha);
  std::vector<double> p(g.num_nodes(), 0.0);
  for (const auto& [t, v] : engine->SeedVector(0)) p[t] = v;
  std::vector<double> sp = s_prime.Multiply(p);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    double expected = c * sp[i] + restart * (i == 0 ? 1.0 : 0.0);
    EXPECT_NEAR(p[i], expected, 1e-10);
  }
}

TEST(PprTest, LinearityLemma3) {
  // Lemma 3: Estimate(q) == Σ q_i · p_{t_i} == direct solve of Eq. (4).
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.tolerance = 1e-14;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  SparseEntries observed = {{0, 1.0}, {2, 0.0}, {4, 0.7}};
  std::vector<double> via_linearity = engine->EstimateFromObserved(observed);
  std::vector<double> q(g.num_nodes(), 0.0);
  q[0] = 1.0;
  q[2] = 0.0;
  q[4] = 0.7;
  std::vector<double> direct = engine->SolveIteratively(q);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(via_linearity[i], direct[i], 1e-9) << "task " << i;
  }
}

TEST(PprTest, IsolatedSeedKeepsOnlyRestartMass) {
  SimilarityGraph g = SimilarityGraph::FromEdges(3, {{0, 1, 1.0}});
  PprOptions options;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  const SparseEntries seed = Entries(engine->SeedVector(2));
  ASSERT_EQ(seed.size(), 1u);
  EXPECT_EQ(seed[0].first, 2);
  EXPECT_NEAR(seed[0].second, options.alpha / (1.0 + options.alpha), 1e-9);
}

TEST(PprTest, LargerAlphaConcentratesMassOnSeed) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions small_alpha;
  small_alpha.alpha = 0.2;
  PprOptions big_alpha;
  big_alpha.alpha = 5.0;
  auto a = PprEngine::Precompute(g, small_alpha);
  auto b = PprEngine::Precompute(g, big_alpha);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto self_mass = [](const SeedVectorView& seed, int32_t node) {
    for (const auto& [t, v] : seed) {
      if (t == node) return v;
    }
    return 0.0;
  };
  double total_a = 0.0, total_b = 0.0;
  for (const auto& [_, v] : a->SeedVector(0)) total_a += v;
  for (const auto& [_, v] : b->SeedVector(0)) total_b += v;
  EXPECT_GT(self_mass(b->SeedVector(0), 0) / total_b,
            self_mass(a->SeedVector(0), 0) / total_a);
}

class PprRandomGraphTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PprRandomGraphTest, LinearityHoldsOnRandomGraphs) {
  size_t n = GetParam();
  SimilarityGraph g = GenerateRandomBoundedGraph(n, 6, /*seed=*/n);
  PprOptions options;
  options.tolerance = 1e-13;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(n);
  SparseEntries observed;
  std::vector<double> q(n, 0.0);
  for (size_t i = 0; i < n; i += 3) {
    double v = rng.Uniform();
    observed.emplace_back(static_cast<int32_t>(i), v);
    q[i] = v;
  }
  std::vector<double> via_linearity = engine->EstimateFromObserved(observed);
  std::vector<double> direct = engine->SolveIteratively(q);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(via_linearity[i], direct[i], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PprRandomGraphTest,
                         ::testing::Values(10, 40, 120));

// PprEngine's seed solve as it stood before its support lists became
// fixed-capacity per-thread arrays: the same arithmetic in the same order,
// kept here as the bit-identity oracle.
SparseEntries ReferenceSolveSeed(const SparseMatrix& s_prime,
                                 const PprOptions& options, size_t seed) {
  const double c = 1.0 / (1.0 + options.alpha);
  const double restart = options.alpha / (1.0 + options.alpha);
  const size_t n = s_prime.n();
  std::vector<double> current_values(n, 0.0);
  std::vector<double> next_values(n, 0.0);
  std::vector<int32_t> support;
  std::vector<int32_t> next_support;
  current_values[seed] = 1.0;
  support.push_back(static_cast<int32_t>(seed));
  const std::vector<size_t>& row_ptr = s_prime.row_ptr();
  const std::vector<int32_t>& cols = s_prime.cols();
  const std::vector<double>& values = s_prime.values();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
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
    double diff = 0.0;
    for (int32_t v : next_support) {
      if (next_values[v] < options.prune_epsilon) next_values[v] = 0.0;
      diff += std::abs(next_values[v] - current_values[v]);
    }
    for (int32_t u : support) {
      if (next_values[u] == 0.0) diff += current_values[u];
      current_values[u] = 0.0;
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
    if (diff < options.tolerance) break;
  }
  SparseEntries out;
  std::sort(support.begin(), support.end());
  for (int32_t v : support) out.emplace_back(v, current_values[v]);
  return out;
}

// The reference solve of every seed, in the pair form.
std::vector<SparseEntries> ReferenceSeeds(const SimilarityGraph& graph,
                                          const PprOptions& options) {
  const SparseMatrix s_prime = graph.NormalizedAdjacency();
  std::vector<SparseEntries> seeds;
  for (size_t i = 0; i < graph.num_nodes(); ++i) {
    seeds.push_back(ReferenceSolveSeed(s_prime, options, i));
  }
  return seeds;
}

void ExpectSeedsMatchReference(const SimilarityGraph& graph,
                               const PprOptions& options) {
  auto engine = PprEngine::Precompute(graph, options);
  ASSERT_TRUE(engine.ok());
  const std::vector<SparseEntries> reference = ReferenceSeeds(graph, options);
  for (size_t i = 0; i < graph.num_nodes(); ++i) {
    ExpectMaximalRuns(engine->SeedVector(i));
    const SparseEntries seed = Entries(engine->SeedVector(i));
    ASSERT_EQ(seed, reference[i]) << "seed " << i;
    ASSERT_TRUE(SameValueBits(seed, reference[i])) << "seed " << i;
  }
}

PprOptions PrunedOptions() {
  PprOptions options;
  options.prune_epsilon = 1e-4;
  options.tolerance = 1e-6;
  return options;
}

class PprSeedKernelTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(PprSeedKernelTest, SeedVectorsMatchReferenceBitForBit) {
  GraphBuildOptions build;
  build.measure = GetParam().corpus == Corpus::kItemCompare
                      ? SimilarityMeasure::kCosineTfIdf
                      : SimilarityMeasure::kJaccard;
  build.threshold = 0.3;
  auto graph = SimilarityGraph::BuildFromTexts(CorpusTexts(GetParam()), build);
  ASSERT_TRUE(graph.ok());
  ExpectSeedsMatchReference(*graph, PprOptions());
  ExpectSeedsMatchReference(*graph, PrunedOptions());
}

// Every GraphExactnessTest corpus, plus an adversarial one of its own.
INSTANTIATE_TEST_SUITE_P(
    Corpora, PprSeedKernelTest,
    ::testing::Values(CorpusCase{Corpus::kYahooQa, 110, 13},
                      CorpusCase{Corpus::kYahooQa, 40, 5},
                      CorpusCase{Corpus::kItemCompare, 90, 11},
                      CorpusCase{Corpus::kItemCompare, 4, 3},
                      CorpusCase{Corpus::kEntity, 4, 23},
                      CorpusCase{Corpus::kEntity, 30, 23},
                      CorpusCase{Corpus::kEntity, 120, 7},
                      CorpusCase{Corpus::kEntity, 400, 23},
                      CorpusCase{Corpus::kAdversarial, 60, 1},
                      CorpusCase{Corpus::kAdversarial, 200, 3},
                      CorpusCase{Corpus::kAdversarial, 300, 2}),
    CorpusCaseName);

TEST(PprSeedKernelTest, RandomGraphSeedVectorsMatchReferenceBitForBit) {
  for (size_t n : {10, 120, 600}) {
    SCOPED_TRACE(n);
    SimilarityGraph graph = GenerateRandomBoundedGraph(n, 6, /*seed=*/n + 1);
    ExpectSeedsMatchReference(graph, PprOptions());
    ExpectSeedsMatchReference(graph, PrunedOptions());
    PprOptions one_sweep = PrunedOptions();
    one_sweep.max_iterations = 1;
    ExpectSeedsMatchReference(graph, one_sweep);
  }
}

// ---------------------------------------------------- engine persistence --

std::vector<uint8_t> EncodeEngine(const PprEngine& engine, size_t frame_bytes) {
  std::vector<uint8_t> out;
  FrameStreamWriter writer(
      [&out](const uint8_t* data, size_t size) {
        out.insert(out.end(), data, data + size);
        return Status::OK();
      },
      frame_bytes);
  EXPECT_TRUE(engine.Encode(&writer).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out;
}

Result<PprEngine> DecodeEngine(const std::vector<uint8_t>& bytes,
                               size_t frame_bytes, size_t n,
                               const PprOptions& options) {
  FrameStreamReader reader(MemorySource(bytes.data(), bytes.size()),
                           bytes.size(), frame_bytes);
  ICROWD_ASSIGN_OR_RETURN(PprEngine engine,
                          PprEngine::Decode(&reader, n, options));
  ICROWD_RETURN_NOT_OK(reader.ExpectEnd());
  return engine;
}

TEST(PprPersistenceTest, DecodedEngineIsBitIdenticalToPrecompute) {
  for (size_t n : {10, 600}) {
    SCOPED_TRACE(n);
    SimilarityGraph graph = GenerateRandomBoundedGraph(n, 6, /*seed=*/n + 1);
    for (const PprOptions& options : {PprOptions(), PrunedOptions()}) {
      auto engine = PprEngine::Precompute(graph, options);
      ASSERT_TRUE(engine.ok());
      // Small frames, so every array straddles frame boundaries.
      const size_t frame_bytes = 4096;
      auto decoded = DecodeEngine(EncodeEngine(*engine, frame_bytes),
                                  frame_bytes, n, options);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded->num_tasks(), n);
      for (size_t i = 0; i < n; ++i) {
        const SparseEntries seed = Entries(decoded->SeedVector(i));
        ASSERT_EQ(seed, Entries(engine->SeedVector(i))) << "seed " << i;
        ASSERT_TRUE(SameValueBits(seed, Entries(engine->SeedVector(i))));
      }
      // S' round-trips too: the reference solver runs on it.
      std::vector<double> q(n, 0.0);
      q[0] = 1.0;
      q[n - 1] = 0.5;
      EXPECT_EQ(decoded->SolveIteratively(q), engine->SolveIteratively(q));
    }
  }
}

TEST(PprPersistenceTest, DecodeRefusesAnotherSizeOrOptions) {
  SimilarityGraph graph = GenerateRandomBoundedGraph(40, 6, /*seed=*/5);
  auto engine = PprEngine::Precompute(graph, PprOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> bytes = EncodeEngine(*engine, kStreamFrameBytes);
  EXPECT_TRUE(DecodeEngine(bytes, kStreamFrameBytes, 40, PprOptions()).ok());
  EXPECT_FALSE(DecodeEngine(bytes, kStreamFrameBytes, 41, PprOptions()).ok());
  PprOptions other;
  other.alpha = 0.5;
  EXPECT_FALSE(DecodeEngine(bytes, kStreamFrameBytes, 40, other).ok());
  bytes.pop_back();
  EXPECT_FALSE(DecodeEngine(bytes, kStreamFrameBytes, 40, PprOptions()).ok());
}

// PprEngine::Encode as it stood when the engine kept each seed as
// (task id, value) pairs: the .ppr format, written from pair-form seeds.
std::vector<uint8_t> EncodePairForm(const SimilarityGraph& graph,
                                    const PprOptions& options,
                                    const std::vector<SparseEntries>& seeds,
                                    size_t frame_bytes) {
  std::vector<uint8_t> out;
  FrameStreamWriter writer(
      [&out](const uint8_t* data, size_t size) {
        out.insert(out.end(), data, data + size);
        return Status::OK();
      },
      frame_bytes);
  auto put = [&writer](const void* data, size_t size) {
    EXPECT_TRUE(writer.Write(data, size).ok());
  };
  auto scalar = [&put](auto value) { put(&value, sizeof(value)); };
  const SparseMatrix s_prime = graph.NormalizedAdjacency();
  scalar(uint64_t{graph.num_nodes()});
  scalar(options.alpha);
  scalar(int64_t{options.max_iterations});
  scalar(options.tolerance);
  scalar(options.prune_epsilon);
  scalar(uint64_t{s_prime.nnz()});
  put(s_prime.row_ptr().data(), s_prime.row_ptr().size() * sizeof(size_t));
  put(s_prime.cols().data(), s_prime.cols().size() * sizeof(int32_t));
  put(s_prime.values().data(), s_prime.values().size() * sizeof(double));
  for (const SparseEntries& seed : seeds) {
    std::vector<int32_t> ids;
    std::vector<double> values;
    for (const auto& [id, value] : seed) {
      ids.push_back(id);
      values.push_back(value);
    }
    scalar(uint64_t{seed.size()});
    put(ids.data(), ids.size() * sizeof(int32_t));
    put(values.data(), values.size() * sizeof(double));
  }
  EXPECT_TRUE(writer.Finish().ok());
  return out;
}

std::vector<SimilarityGraph> PersistenceGraphs() {
  std::vector<SimilarityGraph> graphs;
  for (size_t n : {10, 600}) {
    graphs.push_back(GenerateRandomBoundedGraph(n, 6, /*seed=*/n + 1));
  }
  GraphBuildOptions build;
  build.measure = SimilarityMeasure::kJaccard;
  build.threshold = 0.3;
  graphs.push_back(
      SimilarityGraph::BuildFromTexts(
          CorpusTexts(CorpusCase{Corpus::kEntity, 120, 7}), build)
          .MoveValueOrDie());
  return graphs;
}

TEST(PprPersistenceTest, EncodeWritesThePairFormBytes) {
  for (const SimilarityGraph& graph : PersistenceGraphs()) {
    SCOPED_TRACE(graph.num_nodes());
    for (const PprOptions& options : {PprOptions(), PrunedOptions()}) {
      auto engine = PprEngine::Precompute(graph, options);
      ASSERT_TRUE(engine.ok());
      ASSERT_EQ(EncodeEngine(*engine, 4096),
                EncodePairForm(graph, options, ReferenceSeeds(graph, options),
                               4096));
    }
  }
}

TEST(PprPersistenceTest, PairFormStreamDecodesToTheSameEngine) {
  for (const SimilarityGraph& graph : PersistenceGraphs()) {
    SCOPED_TRACE(graph.num_nodes());
    const size_t n = graph.num_nodes();
    for (const PprOptions& options : {PprOptions(), PrunedOptions()}) {
      const std::vector<SparseEntries> reference =
          ReferenceSeeds(graph, options);
      const std::vector<uint8_t> stream =
          EncodePairForm(graph, options, reference, kStreamFrameBytes);
      auto decoded = DecodeEngine(stream, kStreamFrameBytes, n, options);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      auto built = PprEngine::Precompute(graph, options);
      ASSERT_TRUE(built.ok());
      for (size_t i = 0; i < n; ++i) {
        ExpectMaximalRuns(decoded->SeedVector(i));
        const SparseEntries seed = Entries(decoded->SeedVector(i));
        ASSERT_TRUE(SameValueBits(seed, reference[i])) << "seed " << i;
        ASSERT_TRUE(SameValueBits(seed, Entries(built->SeedVector(i))));
      }
      EXPECT_EQ(decoded->seed_bytes(), built->seed_bytes());
      EXPECT_EQ(EncodeEngine(*decoded, kStreamFrameBytes), stream);
    }
  }
}

TEST(PprPersistenceTest, DecodeRefusesMalformedSeedEntries) {
  const size_t n = 40;
  SimilarityGraph graph = GenerateRandomBoundedGraph(n, 6, /*seed=*/5);
  const PprOptions options;
  const std::vector<SparseEntries> reference = ReferenceSeeds(graph, options);
  ASSERT_TRUE(DecodeEngine(EncodePairForm(graph, options, reference,
                                          kStreamFrameBytes),
                           kStreamFrameBytes, n, options)
                  .ok());
  const size_t s = 3;
  ASSERT_GE(reference[s].size(), 3u);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string,
                              std::function<void(SparseEntries*)>>>
      mutations = {
          {"swapped ids",
           [](SparseEntries* e) { std::swap((*e)[0].first, (*e)[1].first); }},
          {"repeated id", [](SparseEntries* e) { (*e)[1].first = (*e)[0].first; }},
          {"id -1", [](SparseEntries* e) { (*e)[0].first = -1; }},
          {"id n",
           [n](SparseEntries* e) { e->back().first = static_cast<int32_t>(n); }},
          {"zero value", [](SparseEntries* e) { (*e)[1].second = 0.0; }},
          {"negative value", [](SparseEntries* e) { (*e)[1].second = -0.1; }},
          {"NaN value",
           [](SparseEntries* e) {
             (*e)[1].second = std::numeric_limits<double>::quiet_NaN();
           }},
          {"infinite value", [inf](SparseEntries* e) { (*e)[1].second = inf; }},
          {"no seed entry",
           [s](SparseEntries* e) {
             std::erase_if(*e, [s](const auto& entry) {
               return entry.first == static_cast<int32_t>(s);
             });
           }},
      };
  for (const auto& [what, mutate] : mutations) {
    std::vector<SparseEntries> seeds = reference;
    mutate(&seeds[s]);
    EXPECT_FALSE(DecodeEngine(EncodePairForm(graph, options, seeds,
                                             kStreamFrameBytes),
                              kStreamFrameBytes, n, options)
                     .ok())
        << what;
  }
}

}  // namespace
}  // namespace icrowd
