// Randomized invariant tests ("fuzz-lite"): drive random-but-valid
// operation sequences through the campaign state and full campaigns through
// every strategy, and assert the structural invariants that must hold for
// ANY input — no duplicate (task, worker) assignments, slot limits, answer
// conservation, consensus consistency, probability ranges.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/random.h"
#include "sim/experiment.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "datagen/poi.h"
#include "datagen/scalability.h"
#include "datagen/worker_pool.h"
#include "graph/ppr.h"
#include "host/campaign_manager.h"
#include "journal/journal.h"
#include "model/campaign_state.h"

namespace icrowd {
namespace {

class CampaignStateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CampaignStateFuzzTest, RandomOperationSequencesKeepInvariants) {
  Rng rng(GetParam());
  const size_t num_tasks = 1 + rng.UniformInt(0, 11);
  const int k = 1 + 2 * static_cast<int>(rng.UniformInt(0, 2));  // 1/3/5
  CampaignState state(num_tasks, k);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 8; ++i) workers.push_back(state.RegisterWorker());

  // Shadow model of what we did.
  std::set<std::pair<TaskId, WorkerId>> assigned;
  std::set<std::pair<TaskId, WorkerId>> answered;
  std::map<TaskId, int> assignments_per_task;
  size_t answers_recorded = 0;

  for (int op = 0; op < 300; ++op) {
    TaskId t = static_cast<TaskId>(rng.UniformInt(0, num_tasks - 1));
    WorkerId w = workers[rng.UniformInt(0, workers.size() - 1)];
    if (rng.Bernoulli(0.5)) {
      Status st = state.MarkAssigned(t, w);
      bool expect_ok = !assigned.count({t, w}) &&
                       (state.IsQualification(t) ||
                        assignments_per_task[t] < k);
      EXPECT_EQ(st.ok(), expect_ok) << st.ToString();
      if (st.ok()) {
        assigned.insert({t, w});
        ++assignments_per_task[t];
      }
    } else if (rng.Bernoulli(0.1)) {
      state.MarkQualification(t);
    } else {
      Label label = static_cast<Label>(rng.UniformInt(0, 2));
      Status st = state.RecordAnswer({t, w, label, static_cast<double>(op)});
      bool expect_ok = assigned.count({t, w}) && !answered.count({t, w});
      EXPECT_EQ(st.ok(), expect_ok) << st.ToString();
      if (st.ok()) {
        answered.insert({t, w});
        ++answers_recorded;
      }
    }
  }

  // Conservation: every recorded answer appears exactly once in the global
  // log, the per-task log, and the per-worker log.
  EXPECT_EQ(state.AllAnswers().size(), answers_recorded);
  size_t by_task = 0, by_worker = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    by_task += state.Answers(static_cast<TaskId>(t)).size();
    // Per-task answers never exceed assignments.
    EXPECT_LE(state.Answers(static_cast<TaskId>(t)).size(),
              state.AssignedWorkers(static_cast<TaskId>(t)).size());
  }
  for (WorkerId w : workers) by_worker += state.WorkerAnswers(w).size();
  EXPECT_EQ(by_task, answers_recorded);
  EXPECT_EQ(by_worker, answers_recorded);

  // Consensus consistency: completed tasks have a consensus that received
  // at least as many votes as any other label... at minimum, it received
  // >= 1 vote and the task is marked completed exactly when consensus set.
  for (size_t t = 0; t < num_tasks; ++t) {
    TaskId task = static_cast<TaskId>(t);
    if (state.Consensus(task).has_value()) {
      EXPECT_TRUE(state.IsCompleted(task));
    }
    // Qualification tasks keep accepting answers after their consensus is
    // frozen (unlimited slots), so vote dominance only holds for regular
    // tasks, whose answers are capped at k.
    if (!state.IsQualification(task) && state.IsCompleted(task) &&
        !state.Answers(task).empty() && state.Consensus(task).has_value()) {
      std::map<Label, int> votes;
      for (const AnswerRecord& a : state.Answers(task)) ++votes[a.label];
      int consensus_votes = votes[*state.Consensus(task)];
      for (const auto& [label, count] : votes) {
        EXPECT_LE(count, std::max(consensus_votes, (k + 1) / 2))
            << "label " << label << " outvoted the consensus";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignStateFuzzTest,
                         ::testing::Range<uint64_t>(0, 20));

class StrategyFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, StrategyKind>> {};

TEST_P(StrategyFuzzTest, RandomCampaignsKeepInvariants) {
  auto [seed, kind] = GetParam();
  Rng rng(seed);
  // Random small POI-style dataset and pool shape.
  PoiOptions poi;
  poi.num_districts = 2 + rng.UniformInt(0, 2);
  poi.tasks_per_district = 8 + rng.UniformInt(0, 10);
  poi.seed = seed;
  auto dataset = GeneratePoiVerification(poi);
  ASSERT_TRUE(dataset.ok());
  WorkerPoolOptions pool_options;
  pool_options.num_workers = 6 + rng.UniformInt(0, 10);
  pool_options.seed = seed + 1;
  auto workers = GenerateWorkerPool(*dataset, pool_options);

  ICrowdConfig config;
  config.seed = seed + 2;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 4;
  config.assignment_size = 1 + 2 * static_cast<int>(rng.UniformInt(0, 1));
  config.graph.measure = SimilarityMeasure::kEuclidean;
  config.graph.threshold = 0.85;
  config.strategy = kind;

  auto result = RunExperiment(*dataset, workers, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No duplicate (task, worker) answers; per-task answer counts <= k;
  // qualification never appears among work answers; labels valid.
  std::set<std::pair<TaskId, WorkerId>> seen;
  std::map<TaskId, int> per_task;
  std::set<TaskId> qual(result->qualification.tasks.begin(),
                        result->qualification.tasks.end());
  for (const AnswerRecord& a : result->sim.work_answers) {
    EXPECT_TRUE(seen.insert({a.task, a.worker}).second);
    EXPECT_LE(++per_task[a.task], config.assignment_size);
    EXPECT_FALSE(qual.count(a.task));
    EXPECT_GE(a.label, 0);
    EXPECT_LT(a.label, 2);
  }
  // Report sanity.
  EXPECT_GE(result->report.overall, 0.0);
  EXPECT_LE(result->report.overall, 1.0);
  EXPECT_EQ(result->predictions.size(), dataset->size());
  // Cost accounting is consistent.
  EXPECT_NEAR(result->sim.total_cost,
              0.1 * static_cast<double>(result->sim.answers.size()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, StrategyFuzzTest,
    ::testing::Combine(::testing::Range<uint64_t>(0, 4),
                       ::testing::Values(StrategyKind::kRandomMV,
                                         StrategyKind::kAvgAccPV,
                                         StrategyKind::kBestEffort,
                                         StrategyKind::kAdapt)));

class PprLinearityFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PprLinearityFuzzTest, SparseDenseAndDirectSolveAgree) {
  // Lemma 3 property, fuzzed: on a random graph with a random sparse
  // observation vector, the dense Lemma 3 sum over the observed entries and
  // the direct Eq. (4) power iteration must agree everywhere within solver
  // tolerance. This is the invariant the online refresh (and its parallel
  // fan-out) leans on.
  Rng rng(GetParam());
  const size_t n = 8 + rng.UniformInt(0, 56);
  const size_t max_neighbors = 2 + rng.UniformInt(0, 6);
  SimilarityGraph g =
      GenerateRandomBoundedGraph(n, max_neighbors, /*seed=*/GetParam() + 99);

  PprOptions options;
  options.alpha = 0.25 + rng.Uniform() * 3.0;
  options.tolerance = 1e-13;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());

  SparseEntries observed;
  std::vector<double> q(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (!rng.Bernoulli(0.3)) continue;
    double v = rng.Uniform();
    observed.emplace_back(static_cast<int32_t>(i), v);
    q[i] = v;
  }

  std::vector<double> dense = engine->EstimateFromObserved(observed);
  std::vector<double> direct = engine->SolveIteratively(q);

  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(dense[i], direct[i], 1e-7) << "task " << i;
    EXPECT_GE(dense[i], -1e-12);  // PPR mass of non-negative q stays >= 0
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PprLinearityFuzzTest,
                         ::testing::Range<uint64_t>(0, 12));

class IngestInterleavingFuzzTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IngestInterleavingFuzzTest, NoEventDroppedOrAppliedTwice) {
  // Random-but-valid interleavings of submits, Drain barriers and worker
  // departures through a 1-shard host — the one ingest consumer — at a
  // random batch size and queue bound. Invariants for ANY interleaving:
  // every submitted event settles exactly once, answer conservation holds
  // between the journal and the campaign state, and the journal the run
  // wrote restores to the same campaign (nothing dropped, nothing applied
  // twice).
  const uint64_t seed = GetParam();
  Rng rng(seed);
  EntityResolutionOptions er;
  er.tasks_per_family = 5;
  Dataset dataset = GenerateEntityResolution(er).MoveValueOrDie();
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;

  HostConfig host;
  host.max_batch = 1 + rng.UniformInt(0, 8);
  host.queue_capacity = 1 + rng.UniformInt(0, 7);
  auto started = CampaignManager::Start(host);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<CampaignManager> manager = started.MoveValueOrDie();
  CampaignManager::CampaignOptions options;
  options.name = "fuzz";
  options.dataset = dataset;
  options.config = config;
  auto created = manager->CreateCampaign(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const CampaignHandle handle = *created;
  const ICrowd* system = manager->Inspect(handle).MoveValueOrDie();

  size_t submitted = 0;
  size_t answers_submitted = 0;
  WorkerId arrivals = 0;
  for (int op = 0; op < 300; ++op) {
    double r = rng.Uniform();
    if ((arrivals < 8 && r < 0.10) || arrivals == 0) {
      ASSERT_TRUE(manager->SubmitEvent(handle, IngestEvent::Arrived()).ok());
      ++arrivals;
      ++submitted;
    } else if (r < 0.25) {
      // Barrier: everything submitted so far settles; the campaign is then
      // safe to read, so settle held tasks with (possibly wrong) answers.
      // The read window closes at the first new Submit — the shard may
      // start applying it immediately — so snapshot every holding first.
      ASSERT_TRUE(manager->Drain(handle).ok());
      EXPECT_EQ(manager->Stats()[0].settled, submitted);
      std::vector<std::pair<WorkerId, TaskId>> held_tasks;
      for (WorkerId w = 0; w < arrivals; ++w) {
        auto held = system->HeldTask(w);
        if (held.has_value()) held_tasks.emplace_back(w, *held);
      }
      for (const auto& [w, task] : held_tasks) {
        Label answer = static_cast<Label>(rng.UniformInt(0, 1));
        ASSERT_TRUE(manager
                        ->SubmitEvent(handle,
                                      IngestEvent::Answered(w, task, answer))
                        .ok());
        ++submitted;
        ++answers_submitted;
      }
    } else if (r < 0.32) {
      WorkerId w = static_cast<WorkerId>(rng.UniformInt(0, arrivals - 1));
      ASSERT_TRUE(manager->SubmitEvent(handle, IngestEvent::Left(w)).ok());
      ++submitted;
    } else {
      WorkerId w = static_cast<WorkerId>(rng.UniformInt(0, arrivals - 1));
      ASSERT_TRUE(
          manager->SubmitEvent(handle, IngestEvent::Requested(w)).ok());
      ++submitted;
    }
  }
  ASSERT_TRUE(manager->Drain(handle).ok());

  // Exactly-once accounting: one settle per submit, none lost to the queue.
  CampaignManager::CampaignStats stats = manager->Stats()[0];
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.settled, submitted);
  EXPECT_FALSE(stats.failed);
  EXPECT_FALSE(system->failed());
  // Answer conservation: every answer was for a task its worker held, so
  // the journal acknowledged each one and the campaign recorded exactly
  // those.
  std::vector<uint8_t> journal = manager->JournalBytes(handle).MoveValueOrDie();
  auto parsed = ReadJournal(journal);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  size_t journaled_answers = 0;
  for (const JournalEvent& event : parsed->events) {
    if (event.type == JournalEventType::kAnswerSubmitted) ++journaled_answers;
  }
  EXPECT_EQ(journaled_answers, answers_submitted);
  EXPECT_EQ(system->state().AllAnswers().size(), journaled_answers);
  // Journal round-trip: the stream this interleaving journaled restores to
  // the same campaign — dropped or double-applied events cannot hide.
  auto restored = ICrowd::Restore(dataset, config, {}, journal);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), system->Results());
  EXPECT_EQ((*restored)->events_applied(), system->events_applied());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestInterleavingFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace icrowd
