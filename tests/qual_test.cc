#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/entity_resolution.h"
#include "datagen/scalability.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "qualification/influence.h"
#include "qualification/qualification_selector.h"
#include "qualification/warmup.h"

namespace icrowd {
namespace {

SimilarityGraph ThreeCliqueGraph() {
  // Three disjoint 3-cliques {0,1,2}, {3,4,5}, {6,7,8}.
  std::vector<std::tuple<int32_t, int32_t, double>> edges;
  for (int32_t base : {0, 3, 6}) {
    edges.emplace_back(base, base + 1, 1.0);
    edges.emplace_back(base + 1, base + 2, 1.0);
    edges.emplace_back(base, base + 2, 1.0);
  }
  return SimilarityGraph::FromEdges(9, edges);
}

PprEngine MakeEngine(const SimilarityGraph& graph) {
  auto engine = PprEngine::Precompute(graph, {});
  EXPECT_TRUE(engine.ok());
  return engine.MoveValueOrDie();
}

// ------------------------------------------------------------- Influence --

TEST(InfluenceTest, SingleSeedCoversItsClique) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  EXPECT_EQ(ComputeInfluence(engine, {0}), 3u);
  EXPECT_EQ(ComputeInfluence(engine, {4}), 3u);
}

TEST(InfluenceTest, UnionSemantics) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  // Two seeds in the same clique do not add coverage; in different cliques
  // they do.
  EXPECT_EQ(ComputeInfluence(engine, {0, 1}), 3u);
  EXPECT_EQ(ComputeInfluence(engine, {0, 3}), 6u);
  EXPECT_EQ(ComputeInfluence(engine, {0, 3, 6}), 9u);
  EXPECT_EQ(ComputeInfluence(engine, {}), 0u);
}

TEST(InfluenceTest, MarginalInfluenceRespectsCovered) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  std::vector<bool> covered(9, false);
  EXPECT_EQ(MarginalInfluence(engine, 0, covered), 3u);
  covered[0] = covered[1] = true;
  EXPECT_EQ(MarginalInfluence(engine, 0, covered), 1u);
}

TEST(InfluenceTest, MonotoneAndSubmodular) {
  // Influence is a coverage function: adding a seed never hurts, and
  // marginal gains shrink as the base set grows (the property behind the
  // 1 - 1/e guarantee of Algorithm 4).
  SimilarityGraph g = GenerateRandomBoundedGraph(40, 4, /*seed=*/9);
  PprEngine engine = MakeEngine(g);
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaskId> small, large;
    for (size_t i : rng.SampleWithoutReplacement(40, 6)) {
      large.push_back(static_cast<TaskId>(i));
      if (small.size() < 3) small.push_back(static_cast<TaskId>(i));
    }
    TaskId extra = static_cast<TaskId>(rng.UniformInt(0, 39));
    size_t inf_small = ComputeInfluence(engine, small);
    size_t inf_large = ComputeInfluence(engine, large);
    EXPECT_LE(inf_small, inf_large);  // monotone
    std::vector<TaskId> small_plus = small;
    small_plus.push_back(extra);
    std::vector<TaskId> large_plus = large;
    large_plus.push_back(extra);
    size_t gain_small = ComputeInfluence(engine, small_plus) - inf_small;
    size_t gain_large = ComputeInfluence(engine, large_plus) - inf_large;
    EXPECT_GE(gain_small, gain_large);  // submodular
  }
}

// ---------------------------------------------------- Qualification sel. --

TEST(QualificationSelectorTest, GreedyCoversAllCliques) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  auto selection = SelectQualificationGreedy(engine, 3);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks.size(), 3u);
  EXPECT_EQ(selection->influence, 9u);
  // One task per clique.
  std::set<int> cliques;
  for (TaskId t : selection->tasks) cliques.insert(t / 3);
  EXPECT_EQ(cliques.size(), 3u);
}

TEST(QualificationSelectorTest, GreedyMatchesOrBeatsRandomInfluence) {
  SimilarityGraph g = GenerateRandomBoundedGraph(60, 4, /*seed=*/12);
  PprEngine engine = MakeEngine(g);
  auto greedy = SelectQualificationGreedy(engine, 8);
  ASSERT_TRUE(greedy.ok());
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    auto random = SelectQualificationRandom(engine, 8, &rng);
    ASSERT_TRUE(random.ok());
    EXPECT_GE(greedy->influence, random->influence);
  }
}

TEST(QualificationSelectorTest, RandomSelectionIsDistinctAndInRange) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  Rng rng(14);
  auto selection = SelectQualificationRandom(engine, 5, &rng);
  ASSERT_TRUE(selection.ok());
  std::set<TaskId> unique(selection->tasks.begin(), selection->tasks.end());
  EXPECT_EQ(unique.size(), 5u);
  for (TaskId t : selection->tasks) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 9);
  }
}

TEST(QualificationSelectorTest, RejectsBadQuota) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  Rng rng(15);
  EXPECT_FALSE(SelectQualificationGreedy(engine, 0).ok());
  EXPECT_FALSE(SelectQualificationGreedy(engine, 10).ok());
  EXPECT_FALSE(SelectQualificationRandom(engine, 0, &rng).ok());
  EXPECT_FALSE(SelectQualificationRandom(engine, 3, nullptr).ok());
}

TEST(QualificationSelectorTest, GreedyQuotaEqualsTaskCount) {
  SimilarityGraph g = ThreeCliqueGraph();
  PprEngine engine = MakeEngine(g);
  auto selection = SelectQualificationGreedy(engine, 9);
  ASSERT_TRUE(selection.ok());
  std::set<TaskId> unique(selection->tasks.begin(), selection->tasks.end());
  EXPECT_EQ(unique.size(), 9u);
}

// The greedy selection as it stood before lazy evaluation: every round
// rescores every unchosen candidate. Kept here as the oracle.
QualificationSelection ReferenceGreedy(const PprEngine& engine, size_t quota,
                                       double epsilon) {
  QualificationSelection selection;
  std::vector<bool> covered(engine.num_tasks(), false);
  std::vector<bool> chosen(engine.num_tasks(), false);
  std::vector<double> mass_cover(engine.num_tasks(), 0.0);
  for (size_t i = 0; i < quota; ++i) {
    TaskId best = -1;
    size_t best_gain = 0;
    double best_soft = -1.0;
    for (size_t t = 0; t < engine.num_tasks(); ++t) {
      if (chosen[t]) continue;
      size_t gain = MarginalInfluence(engine, static_cast<TaskId>(t),
                                      covered, epsilon);
      if (best != -1 && gain < best_gain) continue;
      double soft = 0.0;
      for (const auto& [i2, mass] : engine.SeedVector(static_cast<TaskId>(t))) {
        soft += mass / (1.0 + mass_cover[i2]);
      }
      if (best == -1 || gain > best_gain ||
          (gain == best_gain && soft > best_soft)) {
        best = static_cast<TaskId>(t);
        best_gain = gain;
        best_soft = soft;
      }
    }
    if (best == -1) break;
    chosen[best] = true;
    selection.tasks.push_back(best);
    for (const auto& [t, mass] : engine.SeedVector(best)) {
      if (mass > epsilon) covered[t] = true;
      mass_cover[t] += mass;
    }
  }
  selection.influence = ComputeInfluence(engine, selection.tasks, epsilon);
  return selection;
}

void ExpectGreedyMatchesReference(const SimilarityGraph& graph) {
  PprEngine engine = MakeEngine(graph);
  const size_t n = engine.num_tasks();
  for (double epsilon : {0.0, 1e-6, 1e-3}) {
    for (size_t quota : {size_t{1}, size_t{2}, size_t{5}, n / 3, n / 2, n}) {
      if (quota == 0 || quota > n) continue;
      SCOPED_TRACE("epsilon " + std::to_string(epsilon) + " quota " +
                   std::to_string(quota));
      auto lazy = SelectQualificationGreedy(engine, quota, epsilon);
      ASSERT_TRUE(lazy.ok());
      QualificationSelection full = ReferenceGreedy(engine, quota, epsilon);
      EXPECT_EQ(lazy->tasks, full.tasks);
      EXPECT_EQ(lazy->influence, full.influence);
    }
  }
}

class LazyGreedyRandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazyGreedyRandomGraphTest, MatchesFullScan) {
  const uint64_t seed = GetParam();
  for (size_t n : {30, 150}) {
    SCOPED_TRACE(n);
    ExpectGreedyMatchesReference(
        GenerateRandomBoundedGraph(n, 2 + seed % 5, /*seed=*/seed * 31 + n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyGreedyRandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(LazyGreedyTest, MatchesFullScanOnDisconnectedCliques) {
  // Eight identical 5-cliques plus four isolated tasks: every clique
  // member ties with its whole clique and with every other clique.
  std::vector<std::tuple<int32_t, int32_t, double>> edges;
  for (int32_t base = 0; base < 40; base += 5) {
    for (int32_t a = base; a < base + 5; ++a) {
      for (int32_t b = a + 1; b < base + 5; ++b) edges.emplace_back(a, b, 1.0);
    }
  }
  ExpectGreedyMatchesReference(SimilarityGraph::FromEdges(44, edges));
}

TEST(LazyGreedyTest, MatchesFullScanOnDuplicateTexts) {
  // Every entity-resolution text three times over: duplicates share their
  // seed vectors' shapes, so their keys tie exactly.
  EntityResolutionOptions options;
  options.tasks_per_family = 8;
  std::vector<std::string> texts;
  for (const std::string& text :
       GenerateEntityResolution(options).MoveValueOrDie().Texts()) {
    for (int copy = 0; copy < 3; ++copy) texts.push_back(text);
  }
  GraphBuildOptions build;
  build.measure = SimilarityMeasure::kJaccard;
  build.threshold = 0.3;
  auto graph = SimilarityGraph::BuildFromTexts(texts, build);
  ASSERT_TRUE(graph.ok());
  ExpectGreedyMatchesReference(*graph);
}

// ---------------------------------------------------------------- Warmup --

Dataset GoldDataset() {
  Dataset ds("gold");
  for (int i = 0; i < 6; ++i) {
    Microtask t;
    t.text = std::string("gold");  // literal assignment: GCC 12 -Wrestrict
    t.domain = "d";
    t.ground_truth = (i % 2 == 0) ? kYes : kNo;
    ds.AddTask(std::move(t));
  }
  return ds;
}

TEST(WarmupTest, CreateValidatesInputs) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  EXPECT_FALSE(WarmupComponent::Create(nullptr, {0}, options).ok());
  EXPECT_FALSE(WarmupComponent::Create(&ds, {}, options).ok());
  EXPECT_FALSE(WarmupComponent::Create(&ds, {99}, options).ok());
  options.tasks_per_worker = 0;
  EXPECT_FALSE(WarmupComponent::Create(&ds, {0}, options).ok());
  Dataset no_truth("nt");
  Microtask t;
  t.text = "x";
  no_truth.AddTask(std::move(t));
  EXPECT_FALSE(WarmupComponent::Create(&no_truth, {0}, {}).ok());
}

TEST(WarmupTest, ServesEachQualificationTaskOnce) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 3;
  auto warmup = WarmupComponent::Create(&ds, {0, 1, 2, 3}, options);
  ASSERT_TRUE(warmup.ok());
  WorkerId w = 0;
  std::set<TaskId> seen;
  for (int i = 0; i < 3; ++i) {
    auto task = warmup->NextTask(w);
    ASSERT_TRUE(task.has_value());
    EXPECT_TRUE(seen.insert(*task).second);
    ASSERT_TRUE(warmup->RecordAnswer(w, *task, kYes).ok());
  }
  EXPECT_TRUE(warmup->IsComplete(w));
  EXPECT_FALSE(warmup->NextTask(w).has_value());
}

TEST(WarmupTest, AcceptsAboveThresholdRejectsBelow) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 4;
  options.rejection_threshold = 0.6;
  auto warmup = WarmupComponent::Create(&ds, {0, 1, 2, 3}, options);
  ASSERT_TRUE(warmup.ok());
  // Worker 0 answers everything correctly.
  for (int i = 0; i < 4; ++i) {
    auto task = warmup->NextTask(0);
    ASSERT_TRUE(task.has_value());
    ASSERT_TRUE(
        warmup->RecordAnswer(0, *task, *ds.task(*task).ground_truth).ok());
  }
  auto good = warmup->Evaluate(0);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->accepted);
  EXPECT_DOUBLE_EQ(good->average_accuracy, 1.0);
  // Worker 1 answers everything wrong.
  for (int i = 0; i < 4; ++i) {
    auto task = warmup->NextTask(1);
    ASSERT_TRUE(task.has_value());
    Label wrong = *ds.task(*task).ground_truth == kYes ? kNo : kYes;
    ASSERT_TRUE(warmup->RecordAnswer(1, *task, wrong).ok());
  }
  auto bad = warmup->Evaluate(1);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->accepted);
  EXPECT_DOUBLE_EQ(bad->average_accuracy, 0.0);
}

TEST(WarmupTest, ExactlyThresholdAccepted) {
  // §2.2: threshold 0.6 with 5 tasks -> 3 correct accepted, 2 rejected.
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 5;
  options.rejection_threshold = 0.6;
  auto warmup = WarmupComponent::Create(&ds, {0, 1, 2, 3, 4}, options);
  ASSERT_TRUE(warmup.ok());
  int answered = 0;
  while (auto task = warmup->NextTask(0)) {
    Label truth = *ds.task(*task).ground_truth;
    Label answer = (answered < 3) ? truth : (truth == kYes ? kNo : kYes);
    ASSERT_TRUE(warmup->RecordAnswer(0, *task, answer).ok());
    ++answered;
  }
  auto verdict = warmup->Evaluate(0);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->correct, 3);
  EXPECT_TRUE(verdict->accepted);
}

TEST(WarmupTest, EliminationCanBeDisabled) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 2;
  options.eliminate_bad_workers = false;
  auto warmup = WarmupComponent::Create(&ds, {0, 1}, options);
  ASSERT_TRUE(warmup.ok());
  for (int i = 0; i < 2; ++i) {
    auto task = warmup->NextTask(0);
    Label wrong = *ds.task(*task).ground_truth == kYes ? kNo : kYes;
    ASSERT_TRUE(warmup->RecordAnswer(0, *task, wrong).ok());
  }
  auto verdict = warmup->Evaluate(0);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->accepted);  // no elimination
  EXPECT_DOUBLE_EQ(verdict->average_accuracy, 0.0);
}

TEST(WarmupTest, GuardsAgainstMisuse) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 2;
  auto warmup = WarmupComponent::Create(&ds, {0, 1}, options);
  ASSERT_TRUE(warmup.ok());
  // Answering a non-qualification task fails.
  EXPECT_FALSE(warmup->RecordAnswer(0, 5, kYes).ok());
  // Evaluating before completion fails.
  EXPECT_EQ(warmup->Evaluate(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(warmup->RecordAnswer(0, 0, kYes).ok());
  // Duplicate answer fails.
  EXPECT_EQ(warmup->RecordAnswer(0, 0, kYes).code(),
            StatusCode::kAlreadyExists);
}

TEST(WarmupTest, RotationSpreadsStartingTasks) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 1;
  auto warmup = WarmupComponent::Create(&ds, {0, 1, 2}, options);
  ASSERT_TRUE(warmup.ok());
  EXPECT_EQ(*warmup->NextTask(0), 0);
  EXPECT_EQ(*warmup->NextTask(1), 1);
  EXPECT_EQ(*warmup->NextTask(2), 2);
  EXPECT_EQ(*warmup->NextTask(3), 0);
}

TEST(WarmupTest, TasksPerWorkerCappedBySetSize) {
  Dataset ds = GoldDataset();
  WarmupOptions options;
  options.tasks_per_worker = 10;  // only 2 qualification tasks exist
  auto warmup = WarmupComponent::Create(&ds, {0, 1}, options);
  ASSERT_TRUE(warmup.ok());
  ASSERT_TRUE(warmup->RecordAnswer(0, 0, kYes).ok());
  ASSERT_TRUE(warmup->RecordAnswer(0, 1, kNo).ok());
  EXPECT_TRUE(warmup->IsComplete(0));
}

}  // namespace
}  // namespace icrowd
