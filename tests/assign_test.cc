#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "assign/adaptive_assigner.h"
#include "assign/avgacc_assigner.h"
#include "assign/best_effort_assigner.h"
#include "assign/exact_assign.h"
#include "assign/greedy_assign.h"
#include "assign/random_assigner.h"
#include "assign/top_workers.h"
#include "common/random.h"
#include "datagen/scalability.h"
#include "graph/similarity_graph.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

TopWorkerSet MakeSet(TaskId task, std::vector<WorkerId> workers,
                     std::vector<double> accuracies) {
  TopWorkerSet set;
  set.task = task;
  set.workers = std::move(workers);
  set.accuracies = std::move(accuracies);
  return set;
}

// ------------------------------------------------------------ TopWorkers --

class TopWorkersTest : public ::testing::Test {
 protected:
  TopWorkersTest() : state_(3, 3) {
    for (int i = 0; i < 5; ++i) workers_.push_back(state_.RegisterWorker());
  }
  AccuracyFn Fn() {
    return [](WorkerId w, TaskId t) {
      static const double base[] = {0.9, 0.8, 0.7, 0.6, 0.5};
      return base[w] - 0.05 * t;
    };
  }
  // Ŵ(task) alone; empty when ComputeTopWorkerSets leaves the task out.
  TopWorkerSet TopSet(TaskId task, const std::vector<WorkerId>& workers) {
    auto sets = ComputeTopWorkerSets({task}, state_, workers, Fn());
    return sets.empty() ? TopWorkerSet{} : sets[0];
  }
  CampaignState state_;
  std::vector<WorkerId> workers_;
};

TEST_F(TopWorkersTest, PicksHighestAccuracyWorkers) {
  TopWorkerSet set = TopSet(0, workers_);
  EXPECT_EQ(set.task, 0);
  EXPECT_EQ(set.workers, (std::vector<WorkerId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(set.accuracies[0], 0.9);
  EXPECT_NEAR(set.AvgAccuracy(), 0.8, 1e-12);
  EXPECT_NEAR(set.SumAccuracy(), 2.4, 1e-12);
}

TEST_F(TopWorkersTest, ExcludesAlreadyAssignedWorkers) {
  ASSERT_TRUE(state_.MarkAssigned(0, 0).ok());
  TopWorkerSet set = TopSet(0, workers_);
  // k' = 2 remaining slots; worker 0 excluded.
  EXPECT_EQ(set.workers, (std::vector<WorkerId>{1, 2}));
}

TEST_F(TopWorkersTest, PartialSetWhenFewWorkers) {
  std::vector<WorkerId> two = {3, 4};
  TopWorkerSet set = TopSet(0, two);
  EXPECT_EQ(set.workers.size(), 2u);
}

TEST_F(TopWorkersTest, EmptyWhenNoSlots) {
  for (WorkerId w : {0, 1, 2}) ASSERT_TRUE(state_.MarkAssigned(0, w).ok());
  TopWorkerSet set = TopSet(0, workers_);
  EXPECT_TRUE(set.empty());
}

TEST_F(TopWorkersTest, AllUncompletedTasksCovered) {
  auto sets =
      ComputeTopWorkerSets(state_.UncompletedTasks(), state_, workers_, Fn());
  EXPECT_EQ(sets.size(), 3u);
  std::set<TaskId> tasks;
  for (const auto& s : sets) tasks.insert(s.task);
  EXPECT_EQ(tasks.size(), 3u);
}

TEST_F(TopWorkersTest, CompletedTasksSkipped) {
  state_.ForceComplete(1, kYes);
  auto sets =
      ComputeTopWorkerSets(state_.UncompletedTasks(), state_, workers_, Fn());
  EXPECT_EQ(sets.size(), 2u);
}

TEST(AssignableTasksTest, FiltersHeldAndCompleted) {
  CampaignState state(3, 3);
  WorkerId w = state.RegisterWorker();
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(1, w).ok());
  EXPECT_EQ(AssignableTasks(w, state), (std::vector<TaskId>{2}));
}

// ---------------------------------------------------------- GreedyAssign --

TEST(GreedyAssignTest, PaperTable3Example) {
  // Table 3: t4 {w5,w4,w1}, t11 {w5,w3}, t9 {w4,w2,w1}, t10 {w3,w1}.
  std::vector<TopWorkerSet> candidates = {
      MakeSet(4, {5, 4, 1}, {0.75, 0.7, 0.6}),
      MakeSet(11, {5, 3}, {0.85, 0.8}),
      MakeSet(9, {4, 2, 1}, {0.85, 0.75, 0.7}),
      MakeSet(10, {3, 1}, {0.7, 0.6}),
  };
  auto scheme = GreedyAssign(candidates);
  // The paper's §4.2 walkthrough: pick t11 (avg 0.825), then t9 (avg
  // 0.767); t4 and t10 are eliminated by overlap.
  ASSERT_EQ(scheme.size(), 2u);
  EXPECT_EQ(scheme[0].task, 11);
  EXPECT_EQ(scheme[1].task, 9);
}

TEST(GreedyAssignTest, SchemeIsWorkerDisjoint) {
  Rng rng(5);
  std::vector<TopWorkerSet> candidates;
  for (TaskId t = 0; t < 30; ++t) {
    std::vector<WorkerId> workers;
    std::vector<double> acc;
    for (size_t i : rng.SampleWithoutReplacement(10, 3)) {
      workers.push_back(static_cast<WorkerId>(i));
      acc.push_back(rng.Uniform(0.4, 0.95));
    }
    candidates.push_back(MakeSet(t, workers, acc));
  }
  auto scheme = GreedyAssign(candidates);
  std::set<WorkerId> used;
  for (const auto& s : scheme) {
    for (WorkerId w : s.workers) {
      EXPECT_TRUE(used.insert(w).second) << "worker reused";
    }
  }
  EXPECT_FALSE(scheme.empty());
}

TEST(GreedyAssignTest, EmptyAndSingleCandidate) {
  EXPECT_TRUE(GreedyAssign({}).empty());
  auto scheme = GreedyAssign({MakeSet(0, {1}, {0.7})});
  ASSERT_EQ(scheme.size(), 1u);
  EXPECT_EQ(scheme[0].task, 0);
}

TEST(GreedyAssignTest, SkipsEmptyCandidates) {
  auto scheme = GreedyAssign({MakeSet(0, {}, {}), MakeSet(1, {2}, {0.9})});
  ASSERT_EQ(scheme.size(), 1u);
  EXPECT_EQ(scheme[0].task, 1);
}

// ----------------------------------------------------------- ExactAssign --

TEST(ExactAssignTest, FindsOptimumOnHandInstance) {
  // Exact (by sum) picks {t0, t3}: 1.8 + 0.95.
  std::vector<TopWorkerSet> candidates = {
      MakeSet(0, {0, 1}, {0.9, 0.9}),
      MakeSet(1, {0}, {0.7}),
      MakeSet(2, {1}, {0.7}),
      MakeSet(3, {2}, {0.95}),
  };
  auto exact = ExactAssign(candidates);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(SchemeObjective(*exact), 1.8 + 0.95, 1e-12);
}

TEST(ExactAssignTest, RespectsDisjointnessConstraint) {
  std::vector<TopWorkerSet> candidates = {
      MakeSet(0, {0}, {0.9}),
      MakeSet(1, {0}, {0.8}),
  };
  auto exact = ExactAssign(candidates);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->size(), 1u);
  EXPECT_EQ((*exact)[0].task, 0);
}

TEST(ExactAssignTest, NodeBudgetAborts) {
  std::vector<TopWorkerSet> candidates;
  for (TaskId t = 0; t < 40; ++t) {
    candidates.push_back(MakeSet(t, {static_cast<WorkerId>(t)}, {0.5}));
  }
  ExactAssignOptions options;
  options.max_nodes = 10;
  EXPECT_EQ(ExactAssign(candidates, options).status().code(),
            StatusCode::kFailedPrecondition);
}

// Property: greedy never beats exact and stays within a reasonable factor
// (Appendix D.4 measured < 2% error on real instances).
class GreedyVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyVsExactTest, GreedyWithinBoundOfOptimal) {
  Rng rng(GetParam());
  size_t num_workers = 3 + rng.UniformInt(0, 4);  // 3..7 as in Table 5
  std::vector<TopWorkerSet> candidates;
  for (TaskId t = 0; t < 12; ++t) {
    size_t size = 1 + rng.UniformInt(0, std::min<size_t>(2, num_workers - 1));
    std::vector<WorkerId> workers;
    std::vector<double> acc;
    for (size_t i : rng.SampleWithoutReplacement(num_workers, size)) {
      workers.push_back(static_cast<WorkerId>(i));
      acc.push_back(rng.Uniform(0.4, 0.95));
    }
    candidates.push_back(MakeSet(t, workers, acc));
  }
  auto exact = ExactAssign(candidates);
  ASSERT_TRUE(exact.ok());
  double opt = SchemeObjective(*exact);
  double app = SchemeObjective(GreedyAssign(candidates));
  EXPECT_LE(app, opt + 1e-9);
  EXPECT_GE(app, 0.5 * opt);  // loose, never violated in practice
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsExactTest,
                         ::testing::Range<uint64_t>(0, 12));

// ------------------------------------------------ SchemePlanner oracle --

// The scheme rebuild as it was before scoring moved out of the rounds,
// kept here only as an oracle: every round re-scores each remaining
// (task, worker) pair, ranks it with std::partial_sort, and runs
// Algorithm 3 on a lazy max-heap with hash-set overlap checks.
namespace reference {

TopWorkerSet TopSet(TaskId task, const CampaignState& state,
                    const std::vector<WorkerId>& workers,
                    const AccuracyFn& accuracy) {
  TopWorkerSet result;
  result.task = task;
  int slots = state.RemainingSlots(task);
  if (slots <= 0) return result;
  std::vector<std::pair<double, WorkerId>> scored;
  for (WorkerId w : workers) {
    if (!state.IsAssignedTo(task, w)) scored.emplace_back(accuracy(w, task), w);
  }
  size_t keep = std::min<size_t>(static_cast<size_t>(slots), scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<ptrdiff_t>(keep),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  for (size_t i = 0; i < keep; ++i) {
    result.workers.push_back(scored[i].second);
    result.accuracies.push_back(scored[i].first);
  }
  return result;
}

std::vector<TopWorkerSet> Greedy(std::vector<TopWorkerSet> candidates) {
  std::vector<double> avg(candidates.size());
  std::unordered_set<WorkerId> universe;
  std::vector<size_t> heap;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty()) continue;
    avg[i] = candidates[i].AvgAccuracy();
    heap.push_back(i);
    for (WorkerId w : candidates[i].workers) universe.insert(w);
  }
  auto worse = [&](size_t a, size_t b) {
    if (avg[a] != avg[b]) return avg[a] < avg[b];
    return candidates[a].task > candidates[b].task;
  };
  std::make_heap(heap.begin(), heap.end(), worse);
  std::vector<TopWorkerSet> scheme;
  std::unordered_set<WorkerId> used;
  while (!heap.empty() && used.size() < universe.size()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    TopWorkerSet& candidate = candidates[heap.back()];
    heap.pop_back();
    bool overlaps = false;
    for (WorkerId w : candidate.workers) overlaps = overlaps || used.count(w);
    if (overlaps) continue;
    for (WorkerId w : candidate.workers) used.insert(w);
    scheme.push_back(std::move(candidate));
  }
  return scheme;
}

struct Plan {
  std::unordered_map<WorkerId, TaskId> plan;
  size_t rounds = 0;
  size_t top_sets = 0;
};

Plan Rebuild(const CampaignState& state, std::vector<WorkerId> workers,
             const AccuracyFn& accuracy, bool multi_round) {
  Plan out;
  std::vector<TaskId> tasks = state.UncompletedTasks();
  while (!workers.empty() && !tasks.empty() &&
         (out.rounds == 0 || multi_round)) {
    ++out.rounds;
    out.top_sets += tasks.size();
    std::vector<TopWorkerSet> candidates;
    for (TaskId t : tasks) {
      TopWorkerSet set = TopSet(t, state, workers, accuracy);
      if (!set.empty()) candidates.push_back(std::move(set));
    }
    std::vector<TopWorkerSet> scheme = Greedy(std::move(candidates));
    if (scheme.empty()) break;
    std::unordered_set<WorkerId> used;
    std::unordered_set<TaskId> chosen;
    for (const TopWorkerSet& set : scheme) {
      chosen.insert(set.task);
      for (WorkerId w : set.workers) {
        out.plan[w] = set.task;
        used.insert(w);
      }
    }
    std::erase_if(workers, [&](WorkerId w) { return used.count(w) > 0; });
    std::erase_if(tasks, [&](TaskId t) { return chosen.count(t) > 0; });
  }
  return out;
}

}  // namespace reference

// Seeded random campaigns: some tasks completed, others holding some or
// all of their k slots, a shuffled subset of the workers active, and
// accuracies quantized to five levels so ties in accuracy (broken by
// worker id) and in set averages (broken by task id) are everywhere.
// Every fourth seed is large enough that the scoring pass fans out on a
// pool: about 16,000 open tasks × 40 workers, above the serial cutoff
// (kParallelScoringPairs, 600,000 pairs).
class SchemePlannerOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemePlannerOracleTest, PlansLikePerRoundRankingAndHeapGreedy) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const bool large = seed % 4 == 3;
  const size_t num_tasks = large ? 20000 : 20 + rng.UniformInt(0, 180);
  const int k = 1 + static_cast<int>(rng.UniformInt(0, 3));
  const size_t num_workers = large ? 40 : 2 + rng.UniformInt(0, 28);
  CampaignState state(num_tasks, k);
  std::vector<WorkerId> all;
  for (size_t i = 0; i < num_workers; ++i) {
    all.push_back(state.RegisterWorker());
  }
  for (TaskId t = 0; t < static_cast<TaskId>(num_tasks); ++t) {
    if (rng.Bernoulli(0.2)) {
      state.ForceComplete(t, kYes);
      continue;
    }
    size_t held = rng.UniformInt(
        0, std::min<int64_t>(k, static_cast<int64_t>(num_workers)));
    for (size_t i : rng.SampleWithoutReplacement(num_workers, held)) {
      ASSERT_TRUE(state.MarkAssigned(t, all[i]).ok());
    }
  }
  std::vector<WorkerId> active;
  size_t num_active =
      large ? num_workers : 1 + rng.UniformInt(0, num_workers - 1);
  for (size_t i : rng.SampleWithoutReplacement(num_workers, num_active)) {
    active.push_back(all[i]);
  }
  const AccuracyFn accuracy = [seed](WorkerId w, TaskId t) {
    uint64_t h = (seed + 1) * 0x9e3779b97f4a7c15ull ^
                 static_cast<uint64_t>(w) * 0xc2b2ae3d27d4eb4full ^
                 static_cast<uint64_t>(t) * 0x165667b19e3779f9ull;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return 0.5 + 0.1 * static_cast<double>(h % 5);
  };
  // The planner scores from rows; fill them from the same function.
  std::vector<std::vector<double>> storage(num_workers,
                                           std::vector<double>(num_tasks));
  AccuracyRows rows;
  for (WorkerId w : all) {
    for (TaskId t = 0; t < static_cast<TaskId>(num_tasks); ++t) {
      storage[w][t] = accuracy(w, t);
    }
    rows.push_back(storage[w].data());
  }

  auto& registry = obs::MetricsRegistry::Global();
  ThreadPool two_threads(2);
  SchemePlanner planner;  // reused, as the assigner reuses its own
  for (bool multi_round : {true, false}) {
    reference::Plan expected =
        reference::Rebuild(state, active, accuracy, multi_round);
    ASSERT_FALSE(expected.plan.empty());
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr),
                             &two_threads}) {
      SCOPED_TRACE(::testing::Message()
                   << "multi_round=" << multi_round
                   << " pool=" << (pool != nullptr));
      const uint64_t top_sets_before =
          registry.CounterValue("icrowd.assign.top_sets_computed");
      const uint64_t submitted_before =
          registry.CounterValue("icrowd.pool.tasks_submitted");
      std::unordered_map<WorkerId, TaskId> plan;
      size_t rounds = planner.Plan(state.UncompletedTasks(), state, active,
                                   rows, multi_round, pool, &plan);
      EXPECT_EQ(rounds, expected.rounds);
      EXPECT_EQ(plan, expected.plan);
      EXPECT_EQ(registry.CounterValue("icrowd.assign.top_sets_computed") -
                    top_sets_before,
                expected.top_sets);
      // Large campaigns score above the serial cutoff, on the pool.
      EXPECT_EQ(registry.CounterValue("icrowd.pool.tasks_submitted") >
                    submitted_before,
                large && pool != nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemePlannerOracleTest,
                         ::testing::Range<uint64_t>(0, 24));

// -------------------------------------------------------- RandomAssigner --

TEST(RandomAssignerTest, OnlyReturnsAssignableTasks) {
  CampaignState state(5, 3);
  WorkerId w = state.RegisterWorker();
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(1, w).ok());
  RandomAssigner assigner(1);
  for (int i = 0; i < 50; ++i) {
    auto task = assigner.RequestTask(w, state, {w});
    ASSERT_TRUE(task.has_value());
    EXPECT_NE(*task, 0);
    EXPECT_NE(*task, 1);
  }
}

TEST(RandomAssignerTest, ReturnsNulloptWhenNothingAssignable) {
  CampaignState state(1, 3);
  WorkerId w = state.RegisterWorker();
  state.ForceComplete(0, kYes);
  RandomAssigner assigner(1);
  EXPECT_FALSE(assigner.RequestTask(w, state, {w}).has_value());
}

// -------------------------------------------------------- AvgAccAssigner --

TEST(AvgAccAssignerTest, GatesWorkersBelowThreshold) {
  CampaignState state(5, 3);
  WorkerId good = state.RegisterWorker();
  WorkerId bad = state.RegisterWorker();
  AvgAccAssigner assigner;
  assigner.OnWorkerRegistered(good, 0.8, state);
  assigner.OnWorkerRegistered(bad, 0.4, state);
  EXPECT_TRUE(assigner.RequestTask(good, state, {good, bad}).has_value());
  EXPECT_FALSE(assigner.RequestTask(bad, state, {good, bad}).has_value());
  EXPECT_DOUBLE_EQ(assigner.AverageAccuracy(good), 0.8);
  EXPECT_DOUBLE_EQ(assigner.AverageAccuracy(99), 0.5);  // unseen
}

// ---------------------------------------- BestEffort / Adaptive fixtures --

Dataset TwoDomainDataset() {
  Dataset ds("two-domain");
  for (int i = 0; i < 8; ++i) {
    Microtask t;
    t.text = "task";
    // Not a literal assignment: GCC 12's -Wrestrict misfires on it here.
    t.domain = std::string(i < 4 ? "A" : "B");
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  return ds;
}

SimilarityGraph TwoCliqueGraph() {
  std::vector<std::tuple<int32_t, int32_t, double>> edges;
  for (int32_t i = 0; i < 4; ++i) {
    for (int32_t j = i + 1; j < 4; ++j) {
      edges.emplace_back(i, j, 1.0);
      edges.emplace_back(i + 4, j + 4, 1.0);
    }
  }
  return SimilarityGraph::FromEdges(8, edges);
}

std::unique_ptr<AccuracyEstimator> MakeEstimator(
    const SimilarityGraph& graph) {
  auto est = AccuracyEstimator::Create(graph, {});
  EXPECT_TRUE(est.ok());
  auto owned = std::make_unique<AccuracyEstimator>(est.MoveValueOrDie());
  owned->SetQualificationTasks({0, 4});
  return owned;
}

// Gives worker w gold observations: correct on task 0 (domain A) iff
// `good_at_a`, correct on task 4 (domain B) iff `good_at_b`.
void SeedGold(CampaignState* state, WorkerId w, bool good_at_a,
              bool good_at_b) {
  for (auto [task, good] : {std::pair<TaskId, bool>{0, good_at_a},
                            std::pair<TaskId, bool>{4, good_at_b}}) {
    if (!state->IsQualification(task)) {
      state->MarkQualification(task);
      state->ForceComplete(task, kYes);
    }
    ASSERT_TRUE(state->MarkAssigned(task, w).ok());
    ASSERT_TRUE(state->RecordAnswer({task, w, good ? kYes : kNo, 0.0}).ok());
  }
}

TEST(BestEffortAssignerTest, RoutesWorkerToItsStrongDomain) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  BestEffortAssigner assigner(&ds, MakeEstimator(graph));
  EXPECT_EQ(assigner.name(), "BestEffort");
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  SeedGold(&state, w, /*good_at_a=*/true, /*good_at_b=*/false);
  assigner.OnWorkerRegistered(w, 0.5, state);
  auto task = assigner.RequestTask(w, state, {w});
  ASSERT_TRUE(task.has_value());
  EXPECT_LT(*task, 4) << "expected a domain-A task";
}

TEST(AdaptiveAssignerTest, PlansWorkersOntoTheirStrongDomains) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph));
  EXPECT_EQ(assigner.name(), "Adapt");
  // k = 1 so each top worker set is a single worker and routing is
  // per-worker (with 2 workers and k = 3 every set would contain both).
  CampaignState state(ds.size(), 1);
  WorkerId w0 = state.RegisterWorker();
  WorkerId w1 = state.RegisterWorker();
  SeedGold(&state, w0, true, false);
  SeedGold(&state, w1, false, true);
  assigner.OnWorkerRegistered(w0, 0.5, state);
  assigner.OnWorkerRegistered(w1, 0.5, state);
  auto t0 = assigner.RequestTask(w0, state, {w0, w1});
  auto t1 = assigner.RequestTask(w1, state, {w0, w1});
  ASSERT_TRUE(t0.has_value());
  ASSERT_TRUE(t1.has_value());
  EXPECT_LT(*t0, 4) << "worker 0 belongs in domain A";
  EXPECT_GE(*t1, 4) << "worker 1 belongs in domain B";
}

TEST(AdaptiveAssignerTest, NeverReturnsUnassignableTask) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph));
  CampaignState state(ds.size(), 1);  // k = 1: slots vanish fast
  std::vector<WorkerId> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(state.RegisterWorker());
  for (WorkerId w : workers) assigner.OnWorkerRegistered(w, 0.7, state);
  Rng rng(4);
  for (int round = 0; round < 20; ++round) {
    for (WorkerId w : workers) {
      auto task = assigner.RequestTask(w, state, workers);
      if (!task.has_value()) continue;
      ASSERT_TRUE(state.CanAssign(*task, w));
      ASSERT_TRUE(state.MarkAssigned(*task, w).ok());
      AnswerRecord answer{*task, w, rng.Bernoulli(0.7) ? kYes : kNo, 0.0};
      ASSERT_TRUE(state.RecordAnswer(answer).ok());
      assigner.OnAnswer(answer, state);
    }
  }
  EXPECT_TRUE(state.AllCompleted());
}

TEST(AdaptiveAssignerTest, QfOnlyModeFreezesEstimates) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssignerOptions options;
  options.adaptive_updates = false;
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph), options);
  EXPECT_EQ(assigner.name(), "QF-Only");
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  SeedGold(&state, w, true, false);
  assigner.OnWorkerRegistered(w, 0.5, state);
  double before = assigner.estimator().Accuracy(w, 1);
  // Complete a task involving this worker; QF-Only must not refresh.
  auto task = assigner.RequestTask(w, state, {w});
  ASSERT_TRUE(task.has_value());
  ASSERT_TRUE(state.MarkAssigned(*task, w).ok());
  AnswerRecord answer{*task, w, kYes, 0.0};
  ASSERT_TRUE(state.RecordAnswer(answer).ok());
  WorkerId w2 = state.RegisterWorker();
  ASSERT_TRUE(state.MarkAssigned(*task, w2).ok());
  ASSERT_TRUE(state.RecordAnswer({*task, w2, kYes, 1.0}).ok());
  ASSERT_TRUE(state.IsCompleted(*task));
  assigner.OnAnswer(answer, state);
  assigner.RequestTask(w, state, {w});
  EXPECT_DOUBLE_EQ(assigner.estimator().Accuracy(w, 1), before);
}

TEST(AdaptiveAssignerTest, SingleSlotServedOnce) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph));
  CampaignState state(ds.size(), 1);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 10; ++i) workers.push_back(state.RegisterWorker());
  for (WorkerId w : workers) assigner.OnWorkerRegistered(w, 0.7, state);
  // Complete all but one task so a single slot remains for ten workers.
  for (TaskId t = 0; t + 1 < static_cast<TaskId>(ds.size()); ++t) {
    state.ForceComplete(t, kYes);
  }
  int served = 0;
  for (WorkerId w : workers) {
    auto task = assigner.RequestTask(w, state, workers);
    if (task.has_value()) {
      EXPECT_EQ(*task, static_cast<TaskId>(ds.size() - 1));
      ASSERT_TRUE(state.MarkAssigned(*task, w).ok());
      ++served;
    }
  }
  EXPECT_EQ(served, 1);
}

TEST(AdaptiveAssignerTest, PerformanceTestingCanBeDisabled) {
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssignerOptions options;
  options.performance_testing = false;
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph), options);
  CampaignState state(ds.size(), 1);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(state.RegisterWorker());
  for (WorkerId w : workers) assigner.OnWorkerRegistered(w, 0.7, state);
  int assigned = 0;
  for (WorkerId w : workers) {
    auto task = assigner.RequestTask(w, state, workers);
    if (task.has_value()) {
      ASSERT_TRUE(state.MarkAssigned(*task, w).ok());
      ++assigned;
    }
  }
  EXPECT_EQ(assigner.Stats().test_assignments, 0u);
  EXPECT_GT(assigned, 0);
}

TEST(AdaptiveAssignerTest, StatsIsSafeToPollConcurrently) {
  // Regression test for the dashboard use case: Stats() used to copy plain
  // size_t/double fields while the serving thread mutated them — a data
  // race TSan flags. The fields are atomics now; this test races a poller
  // against the serving loop so a TSan build proves the fix.
  Dataset ds = TwoDomainDataset();
  SimilarityGraph graph = TwoCliqueGraph();
  AdaptiveAssignerOptions options;
  options.pool = std::make_shared<ThreadPool>(2);
  AdaptiveAssigner assigner(&ds, MakeEstimator(graph), options);
  CampaignState state(ds.size(), 1);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 4; ++i) workers.push_back(state.RegisterWorker());
  for (size_t i = 0; i < workers.size(); ++i) {
    SeedGold(&state, workers[i], i % 2 == 0, i % 2 == 1);
  }

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      AssignerStats stats = assigner.Stats();
      // Counters only grow and seconds never go negative.
      EXPECT_GE(stats.scheme_recompute_seconds, 0.0);
      EXPECT_GE(stats.refresh_seconds, 0.0);
    }
  });

  for (WorkerId w : workers) assigner.OnWorkerRegistered(w, 0.7, state);
  for (int round = 0; round < 20; ++round) {
    for (WorkerId w : workers) {
      auto task = assigner.RequestTask(w, state, workers);
      if (!task.has_value()) continue;
      ASSERT_TRUE(state.MarkAssigned(*task, w).ok());
      AnswerRecord record{*task, w, kYes, 0.0};
      ASSERT_TRUE(state.RecordAnswer(record).ok());
      assigner.OnAnswer(record, state);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_GE(assigner.Stats().scheme_recomputations, 1u);
}

TEST(AdaptiveAssignerTest, PooledRebuildPlansLikeSerialOnFigure10Workload) {
  // The rebuild Figure 10 times, at 14,000 tasks: a §6.5 bounded graph
  // with one PPR sweep and 50 workers holding about 100 graded answers
  // each. The 12,333 open tasks × 50 workers (616,650 pairs) are above the
  // serial scoring cutoff (kParallelScoringPairs, 600,000), so the pool
  // really runs. A rebuild fanned out
  // over a 4-thread pool must plan exactly what the serial rebuild plans:
  // the same task for every worker's first request.
  // The setup mirrors bench/bench_util.h's MakeScalabilityCampaign on
  // purpose (that helper builds only serial assigners and aborts on error);
  // keep the two in step when the Figure 10 workload changes.
  const size_t kTasks = 14000;
  Dataset ds;
  for (size_t t = 0; t < kTasks; ++t) ds.AddTask({});
  SimilarityGraph graph = GenerateRandomBoundedGraph(kTasks, 20, /*seed=*/7);
  CampaignState state(kTasks, 3);
  std::vector<WorkerId> workers =
      SimulateGradedAnswers(&state, 50, 100, /*seed=*/8);
  ASSERT_GT(state.NumCompleted(), 0u);
  ASSERT_LT(state.NumCompleted(), kTasks);

  auto first_requests = [&](std::shared_ptr<ThreadPool> pool) {
    AccuracyEstimatorOptions estimator_options;
    estimator_options.ppr.max_iterations = 1;
    estimator_options.ppr.prune_epsilon = 1e-4;
    auto estimator = AccuracyEstimator::Create(graph, estimator_options);
    EXPECT_TRUE(estimator.ok());
    AdaptiveAssignerOptions options;
    options.pool = std::move(pool);
    AdaptiveAssigner assigner(
        &ds, std::make_unique<AccuracyEstimator>(estimator.MoveValueOrDie()),
        options);
    for (WorkerId w : workers) assigner.OnWorkerRegistered(w, 0.7, state);
    std::vector<std::optional<TaskId>> tasks;
    for (WorkerId w : workers) {
      tasks.push_back(assigner.RequestTask(w, state, workers));
    }
    EXPECT_GE(assigner.Stats().scheme_recomputations, 1u);
    return tasks;
  };
  std::vector<std::optional<TaskId>> serial = first_requests(nullptr);
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t submitted =
      registry.CounterValue("icrowd.pool.tasks_submitted");
  std::vector<std::optional<TaskId>> pooled =
      first_requests(std::make_shared<ThreadPool>(4));
  // No answers have arrived, so no refresh runs: the pool work is scoring.
  EXPECT_GT(registry.CounterValue("icrowd.pool.tasks_submitted"), submitted);
  ASSERT_EQ(serial.size(), workers.size());
  for (const std::optional<TaskId>& task : serial) {
    ASSERT_TRUE(task.has_value());
    EXPECT_FALSE(state.IsCompleted(*task));
  }
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace icrowd
