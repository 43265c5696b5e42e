#include <gtest/gtest.h>

#include <set>

#include "core/clock.h"
#include "core/icrowd.h"
#include "datagen/worker_pool.h"
#include "sim/activity_tracker.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace icrowd {
namespace {

Dataset SmallDataset(size_t n = 10) {
  Dataset ds("sim-small");
  for (size_t i = 0; i < n; ++i) {
    Microtask t;
    t.text = "task " + std::to_string(i);
    t.domain = (i % 2 == 0) ? "even" : "odd";
    t.ground_truth = (i % 3 == 0) ? kYes : kNo;
    ds.AddTask(std::move(t));
  }
  return ds;
}

std::vector<WorkerProfile> ReliablePool(size_t n, double accuracy = 0.9) {
  std::vector<WorkerProfile> pool(n);
  for (size_t i = 0; i < n; ++i) {
    std::string id(1, 'w');  // not `"w" + ...`: GCC 12 -Wrestrict misfires
    id += std::to_string(i);
    pool[i].external_id = std::move(id);
    pool[i].domain_accuracy = {accuracy, accuracy};
    pool[i].arrival_time = static_cast<double>(i);
    pool[i].willingness = 100;
    pool[i].mean_dwell = 1.0;
  }
  return pool;
}

// A campaign for the simulated crowd to drive: random assignment (no
// warm-up elimination) behind a one-task warm-up, on the simulator's event
// clock.
ICrowdConfig RandomCampaign(uint64_t seed = 7) {
  ICrowdConfig config;
  config.strategy = StrategyKind::kRandomMV;
  config.num_qualification = 1;
  config.warmup.tasks_per_worker = 1;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  config.clock = std::make_shared<ManualClock>();
  return config;
}

Result<SimulationResult> Simulate(const Dataset& ds,
                                  const std::vector<WorkerProfile>& pool,
                                  const ICrowdConfig& config,
                                  SimulationOptions options = {}) {
  auto system = ICrowd::Create(ds, config);
  if (!system.ok()) return system.status();
  CrowdSimulator sim(&pool, options);
  return sim.Run(system->get());
}

// --------------------------------------------------------- WorkerProfile --

TEST(WorkerProfileTest, TrueAccuracyFallsBackToCoinFlip) {
  WorkerProfile profile;
  profile.domain_accuracy = {0.9, 0.3};
  Microtask t0;
  t0.domain_id = 0;
  Microtask t1;
  t1.domain_id = 1;
  Microtask unknown;
  unknown.domain_id = 5;
  Microtask none;
  EXPECT_DOUBLE_EQ(profile.TrueAccuracy(t0), 0.9);
  EXPECT_DOUBLE_EQ(profile.TrueAccuracy(t1), 0.3);
  EXPECT_DOUBLE_EQ(profile.TrueAccuracy(unknown), 0.5);
  EXPECT_DOUBLE_EQ(profile.TrueAccuracy(none), 0.5);
}

// ------------------------------------------------------------- Simulator --

TEST(SimulatorTest, ValidatesInputs) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(3);
  {
    CrowdSimulator sim(&pool, {});
    EXPECT_FALSE(sim.Run(nullptr).ok());
  }
  {
    std::vector<WorkerProfile> empty;
    EXPECT_FALSE(Simulate(ds, empty, RandomCampaign()).ok());
  }
  {
    // The crowd sets campaign time: a campaign without a ManualClock is
    // refused.
    ICrowdConfig config = RandomCampaign();
    config.clock = nullptr;
    EXPECT_FALSE(Simulate(ds, pool, config).ok());
  }
  {
    // Worker ids index the profile pool: the campaign must be fresh.
    auto system = ICrowd::Create(ds, RandomCampaign());
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)->OnWorkerArrived().ok());
    CrowdSimulator sim(&pool, {});
    EXPECT_EQ(sim.Run(system->get()).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    Dataset partial = SmallDataset();
    Microtask t;
    t.text = "zzz qqq";
    partial.AddTask(std::move(t));
    auto result = Simulate(partial, pool, RandomCampaign());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SimulatorTest, CompletesAllTasksWithReliableCrowd) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(6);
  auto result = Simulate(ds, pool, RandomCampaign());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->completed_all);
  for (Label l : result->consensus) EXPECT_NE(l, kNoLabel);
  EXPECT_GT(result->num_requests, 0u);
}

TEST(SimulatorTest, RespectsAssignmentSizeInvariant) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(8);
  ICrowdConfig config = RandomCampaign(8);
  config.assignment_size = 3;
  auto result = Simulate(ds, pool, config);
  ASSERT_TRUE(result.ok());
  // No task collects more than k answers; no worker answers a task twice.
  std::map<TaskId, int> per_task;
  std::set<std::pair<TaskId, WorkerId>> pairs;
  for (const AnswerRecord& a : result->work_answers) {
    ++per_task[a.task];
    EXPECT_TRUE(pairs.insert({a.task, a.worker}).second);
  }
  for (const auto& [task, count] : per_task) EXPECT_LE(count, 3);
}

TEST(SimulatorTest, HighAccuracyCrowdRecoversGroundTruth) {
  Dataset ds = SmallDataset(20);
  auto pool = ReliablePool(6, 0.97);
  auto result = Simulate(ds, pool, RandomCampaign(9));
  ASSERT_TRUE(result.ok());
  AccuracyReport report = EvaluateAccuracy(ds, result->consensus);
  EXPECT_GE(report.overall, 0.9);
}

TEST(SimulatorTest, WarmupRejectsHopelessWorkersAndRecycles) {
  Dataset ds = SmallDataset();
  // All workers are terrible -> every warm-up fails -> pool respawns until
  // the cap, then the run stops without completing.
  auto pool = ReliablePool(3, 0.05);
  ICrowdConfig config = RandomCampaign(10);
  config.strategy = StrategyKind::kAdapt;  // eliminates bad workers
  config.num_qualification = 3;
  config.warmup.tasks_per_worker = 3;
  config.warmup.rejection_threshold = 0.9;
  SimulationOptions options;
  options.max_pool_respawns = 2;
  auto result = Simulate(ds, pool, config, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completed_all);
  EXPECT_GT(result->workers_rejected, 0u);
  EXPECT_EQ(result->workers_spawned, 9u);  // 3 spawns of 3 profiles
}

TEST(SimulatorTest, QualificationAnswersExcludedFromWorkAnswers) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(5);
  ICrowdConfig config = RandomCampaign(11);
  config.num_qualification = 2;
  config.warmup.tasks_per_worker = 2;
  auto result = Simulate(ds, pool, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->qualification_tasks.size(), 2u);
  std::set<TaskId> qual(result->qualification_tasks.begin(),
                        result->qualification_tasks.end());
  for (const AnswerRecord& a : result->work_answers) {
    EXPECT_FALSE(qual.count(a.task));
  }
  // answers (full log) does include qualification answers.
  bool has_qual = false;
  for (const AnswerRecord& a : result->answers) {
    if (qual.count(a.task)) has_qual = true;
  }
  EXPECT_TRUE(has_qual);
  // Qualification tasks report their ground truth as consensus.
  for (TaskId t : result->qualification_tasks) {
    EXPECT_EQ(result->consensus[t], *ds.task(t).ground_truth);
  }
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(5, 0.8);
  SimulationOptions options;
  options.seed = 99;
  auto run = [&] {
    auto result = Simulate(ds, pool, RandomCampaign(42), options);
    EXPECT_TRUE(result.ok());
    return result->consensus;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, WorkerProfileMappingValid) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(4);
  auto result = Simulate(ds, pool, RandomCampaign(12));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->worker_profile.size(), result->workers_spawned);
  for (size_t p : result->worker_profile) EXPECT_LT(p, pool.size());
}

// --------------------------------------------------------------- Metrics --

TEST(MetricsTest, EvaluateAccuracyPerDomain) {
  Dataset ds = SmallDataset(6);  // domains even/odd, truths per i%3
  std::vector<Label> predicted(6);
  for (size_t i = 0; i < 6; ++i) {
    predicted[i] = *ds.task(static_cast<TaskId>(i)).ground_truth;
  }
  predicted[1] = (predicted[1] == kYes) ? kNo : kYes;  // one error in "odd"
  AccuracyReport report = EvaluateAccuracy(ds, predicted);
  EXPECT_EQ(report.num_tasks, 6u);
  EXPECT_EQ(report.num_correct, 5u);
  ASSERT_EQ(report.per_domain.size(), 2u);
  EXPECT_DOUBLE_EQ(report.per_domain[0].accuracy, 1.0);          // even
  EXPECT_NEAR(report.per_domain[1].accuracy, 2.0 / 3.0, 1e-12);  // odd
}

TEST(MetricsTest, QualificationCountedCorrectByConstruction) {
  Dataset ds = SmallDataset(4);
  std::vector<Label> predicted(4, kNoLabel);  // everything unanswered
  AccuracyReport with_qual = EvaluateAccuracy(ds, predicted, {0, 1});
  EXPECT_EQ(with_qual.num_correct, 2u);
  AccuracyReport excluded =
      EvaluateAccuracy(ds, predicted, {0, 1}, /*include_qualification=*/false);
  EXPECT_EQ(excluded.num_tasks, 2u);
  EXPECT_EQ(excluded.num_correct, 0u);
}

TEST(MetricsTest, EmptyPredictionsScoreZero) {
  Dataset ds = SmallDataset(4);
  AccuracyReport report = EvaluateAccuracy(ds, {});
  EXPECT_EQ(report.num_correct, 0u);
  EXPECT_DOUBLE_EQ(report.overall, 0.0);
}

TEST(MetricsTest, WorkerDomainAccuracies) {
  Dataset ds = SmallDataset(6);
  std::vector<AnswerRecord> answers;
  // Worker 0: perfect on all 6 tasks. Worker 1: always wrong on even tasks.
  for (TaskId t = 0; t < 6; ++t) {
    answers.push_back({t, 0, *ds.task(t).ground_truth, 0.0});
  }
  for (TaskId t = 0; t < 6; t += 2) {
    Label wrong = *ds.task(t).ground_truth == kYes ? kNo : kYes;
    answers.push_back({t, 1, wrong, 0.0});
  }
  auto stats = ComputeWorkerDomainAccuracies(ds, answers);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].accuracy[0], 1.0);
  EXPECT_DOUBLE_EQ(stats[0].accuracy[1], 1.0);
  EXPECT_DOUBLE_EQ(stats[1].accuracy[0], 0.0);  // even domain, all wrong
  EXPECT_EQ(stats[1].count[1], 0u);             // never answered odd
}

TEST(MetricsTest, WorkerDomainAccuraciesMinAnswersFilter) {
  Dataset ds = SmallDataset(6);
  std::vector<AnswerRecord> answers = {{0, 0, kYes, 0.0},
                                       {0, 1, kYes, 0.0},
                                       {1, 1, kNo, 0.0},
                                       {2, 1, kYes, 0.0}};
  auto stats = ComputeWorkerDomainAccuracies(ds, answers, /*min_answers=*/2);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].worker, 1);
}

TEST(MetricsTest, AssignmentDistributionSortedDescending) {
  std::vector<AnswerRecord> answers = {
      {0, 2, kYes, 0.0}, {1, 2, kYes, 0.0}, {2, 2, kYes, 0.0},
      {0, 1, kYes, 0.0}, {1, 1, kYes, 0.0}, {0, 0, kYes, 0.0}};
  auto dist = AssignmentDistribution(answers);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_EQ(dist[0], (std::pair<WorkerId, size_t>{2, 3}));
  EXPECT_EQ(dist[1], (std::pair<WorkerId, size_t>{1, 2}));
  EXPECT_EQ(dist[2], (std::pair<WorkerId, size_t>{0, 1}));
}

// ------------------------------------------------------- ActivityTracker --

TEST(ActivityTrackerTest, WindowSemantics) {
  ActivityTracker tracker(60.0);  // one-minute window
  tracker.RecordRequest(0, 100.0);
  tracker.RecordRequest(1, 150.0);
  EXPECT_TRUE(tracker.IsActive(0, 160.0));   // exactly at the window edge
  EXPECT_FALSE(tracker.IsActive(0, 161.0));  // just past it
  EXPECT_TRUE(tracker.IsActive(1, 161.0));
  EXPECT_FALSE(tracker.IsActive(9, 161.0));  // never requested
  EXPECT_EQ(tracker.ActiveWorkers(160.0), (std::vector<WorkerId>{0, 1}));
  EXPECT_EQ(tracker.ActiveWorkers(161.0), (std::vector<WorkerId>{1}));
}

TEST(ActivityTrackerTest, NewRequestRefreshesWindow) {
  ActivityTracker tracker(30.0);
  tracker.RecordRequest(5, 0.0);
  EXPECT_FALSE(tracker.IsActive(5, 100.0));
  tracker.RecordRequest(5, 95.0);
  EXPECT_TRUE(tracker.IsActive(5, 100.0));
}

TEST(ActivityTrackerTest, MarkLeftRemovesWorker) {
  ActivityTracker tracker(1000.0);
  tracker.RecordRequest(2, 10.0);
  EXPECT_EQ(tracker.tracked(), 1u);
  tracker.MarkLeft(2);
  EXPECT_FALSE(tracker.IsActive(2, 11.0));
  EXPECT_EQ(tracker.tracked(), 0u);
}

// -------------------------------------------------------------- Payments --

TEST(SimulatorTest, PaymentAccountingMatchesAnswerCounts) {
  Dataset ds = SmallDataset();
  auto pool = ReliablePool(5);
  ICrowdConfig config = RandomCampaign(21);
  config.num_qualification = 2;
  config.warmup.tasks_per_worker = 2;
  SimulationOptions options;
  options.price_per_assignment = 0.1;
  auto result = Simulate(ds, pool, config, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_cost,
              0.1 * static_cast<double>(result->answers.size()), 1e-9);
  size_t qual_answers = result->answers.size() - result->work_answers.size();
  EXPECT_NEAR(result->qualification_cost,
              0.1 * static_cast<double>(qual_answers), 1e-9);
  EXPECT_GT(result->qualification_cost, 0.0);
  EXPECT_LT(result->qualification_cost, result->total_cost);
}

// -------------------------------------------------------------- Datagen --

TEST(WorkerPoolTest, GeneratesRequestedShape) {
  Dataset ds = SmallDataset();
  WorkerPoolOptions options;
  options.num_workers = 20;
  auto pool = GenerateWorkerPool(ds, options);
  ASSERT_EQ(pool.size(), 20u);
  for (const WorkerProfile& p : pool) {
    EXPECT_EQ(p.domain_accuracy.size(), ds.domains().size());
    for (double a : p.domain_accuracy) {
      EXPECT_GT(a, 0.0);
      EXPECT_LT(a, 1.0);
    }
    EXPECT_GE(p.willingness, 1);
    EXPECT_FALSE(p.external_id.empty());
  }
}

TEST(WorkerPoolTest, DomainCapEnforced) {
  Dataset ds = SmallDataset();
  WorkerPoolOptions options;
  options.num_workers = 40;
  options.domain_accuracy_cap = {0.7, 0.0};  // cap "even" only
  auto pool = GenerateWorkerPool(ds, options);
  for (const WorkerProfile& p : pool) {
    EXPECT_LE(p.domain_accuracy[0], 0.7);
  }
  // Uncapped domain should exceed the cap for some expert.
  bool any_above = false;
  for (const WorkerProfile& p : pool) {
    if (p.domain_accuracy[1] > 0.8) any_above = true;
  }
  EXPECT_TRUE(any_above);
}

TEST(WorkerPoolTest, DeterministicForSeed) {
  Dataset ds = SmallDataset();
  WorkerPoolOptions options;
  options.num_workers = 10;
  auto a = GenerateWorkerPool(ds, options);
  auto b = GenerateWorkerPool(ds, options);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].domain_accuracy, b[i].domain_accuracy);
    EXPECT_EQ(a[i].willingness, b[i].willingness);
  }
}

TEST(WorkerPoolTest, ContainsDiverseArchetypes) {
  Dataset ds = SmallDataset();
  WorkerPoolOptions options;
  options.num_workers = 60;
  auto pool = GenerateWorkerPool(ds, options);
  int experts = 0, spammers = 0;
  for (const WorkerProfile& p : pool) {
    double best = std::max(p.domain_accuracy[0], p.domain_accuracy[1]);
    if (best >= 0.85) ++experts;
    if (best < 0.6) ++spammers;
  }
  EXPECT_GT(experts, 5);
  EXPECT_GT(spammers, 2);
}

}  // namespace
}  // namespace icrowd
