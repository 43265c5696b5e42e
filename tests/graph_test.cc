#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/random.h"
#include "datagen/scalability.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "graph/sparse_matrix.h"

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

TEST(PprTest, SeedVectorContainsSeedWithRestartMass) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const SparseEntries& seed = engine->SeedVector(i);
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
  const SparseEntries& seed = engine->SeedVector(2);
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
  auto self_mass = [](const SparseEntries& seed, int32_t node) {
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

}  // namespace
}  // namespace icrowd
