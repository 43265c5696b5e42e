#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "sim/experiment.h"
#include "core/icrowd.h"
#include "core/strategy_factory.h"
#include "datagen/entity_resolution.h"
#include "datagen/worker_pool.h"

namespace icrowd {
namespace {

Dataset TinyDataset() {
  Dataset ds("tiny");
  const char* texts[] = {
      "iphone four wifi 32gb", "iphone four 3g 16gb", "iphone four case",
      "iphone four charger",   "ipod nano headphone", "ipod touch wifi",
      "ipod touch 32gb",       "ipod nano 8gb",
  };
  for (size_t i = 0; i < 8; ++i) {
    Microtask t;
    t.text = texts[i];
    t.domain = i < 4 ? "iphone" : "ipod";
    t.ground_truth = (i % 2 == 0) ? kYes : kNo;
    ds.AddTask(std::move(t));
  }
  return ds;
}

ICrowdConfig TinyConfig() {
  ICrowdConfig config;
  config.num_qualification = 2;
  config.warmup.tasks_per_worker = 2;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  return config;
}

// -------------------------------------------------------- StrategyFactory --

// The campaign estimator MakeStrategy consumes, as ICrowd::Build makes it.
std::unique_ptr<AccuracyEstimator> TinyEstimator(
    const Dataset& ds, const ICrowdConfig& config,
    const std::vector<TaskId>& qualification) {
  auto graph = SimilarityGraph::Build(ds, config.graph);
  EXPECT_TRUE(graph.ok());
  auto estimator = AccuracyEstimator::Create(*graph, config.estimator);
  EXPECT_TRUE(estimator.ok());
  auto owned = std::make_unique<AccuracyEstimator>(estimator.MoveValueOrDie());
  owned->SetQualificationTasks(qualification);
  return owned;
}

Result<Strategy> TinyStrategy(const Dataset& ds, StrategyKind kind,
                              const std::vector<TaskId>& qualification) {
  ICrowdConfig config = TinyConfig();
  config.strategy = kind;
  return MakeStrategy(ds, TinyEstimator(ds, config, qualification), config);
}

TEST(StrategyFactoryTest, NamesAreStable) {
  EXPECT_STREQ(StrategyName(StrategyKind::kRandomMV), "RandomMV");
  EXPECT_STREQ(StrategyName(StrategyKind::kRandomEM), "RandomEM");
  EXPECT_STREQ(StrategyName(StrategyKind::kAvgAccPV), "AvgAccPV");
  EXPECT_STREQ(StrategyName(StrategyKind::kQfOnly), "QF-Only");
  EXPECT_STREQ(StrategyName(StrategyKind::kBestEffort), "BestEffort");
  EXPECT_STREQ(StrategyName(StrategyKind::kAdapt), "iCrowd");
  EXPECT_STREQ(StrategyName(StrategyKind::kAdaptSingleRound), "SingleRound");
  EXPECT_STREQ(StrategyName(StrategyKind::kAdaptNoTesting), "NoPerfTesting");
  EXPECT_STREQ(StrategyName(StrategyKind::kHungarian), "Hungarian");
}

TEST(StrategyFactoryTest, BuildsEveryStrategy) {
  Dataset ds = TinyDataset();
  for (StrategyKind kind :
       {StrategyKind::kRandomMV, StrategyKind::kRandomEM,
        StrategyKind::kAvgAccPV, StrategyKind::kQfOnly,
        StrategyKind::kBestEffort, StrategyKind::kAdapt,
        StrategyKind::kAdaptSingleRound, StrategyKind::kAdaptNoTesting,
        StrategyKind::kHungarian}) {
    auto strategy = TinyStrategy(ds, kind, {0, 4});
    ASSERT_TRUE(strategy.ok()) << StrategyName(kind);
    EXPECT_NE(strategy->assigner, nullptr);
    EXPECT_EQ(strategy->name, StrategyName(kind));
  }
  // The estimator is the campaign's single PPR precompute: it is required.
  EXPECT_FALSE(MakeStrategy(ds, nullptr, TinyConfig()).ok());
}

TEST(StrategyFactoryTest, RandomBaselinesSkipElimination) {
  Dataset ds = TinyDataset();
  auto mv = TinyStrategy(ds, StrategyKind::kRandomMV, {});
  auto adapt = TinyStrategy(ds, StrategyKind::kAdapt, {});
  ASSERT_TRUE(mv.ok());
  ASSERT_TRUE(adapt.ok());
  EXPECT_FALSE(mv->eliminate_bad_workers);
  EXPECT_TRUE(adapt->eliminate_bad_workers);
}

TEST(StrategyFactoryTest, EstimateBasedStrategiesExposeAccuracyFn) {
  Dataset ds = TinyDataset();
  auto adapt = TinyStrategy(ds, StrategyKind::kAdapt, {0});
  ASSERT_TRUE(adapt.ok());
  ASSERT_TRUE(adapt->accuracy_fn != nullptr);
  double p = adapt->accuracy_fn(0, 0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

// ------------------------------------------------------------ Experiment --

TEST(ExperimentTest, RunsEndToEndAndScores) {
  Dataset ds = TinyDataset();
  WorkerPoolOptions pool_options;
  pool_options.num_workers = 10;
  auto pool = GenerateWorkerPool(ds, pool_options);
  auto result = RunExperiment(ds, pool, TinyConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy_name, "iCrowd");
  EXPECT_EQ(result->predictions.size(), ds.size());
  EXPECT_EQ(result->qualification.tasks.size(), 2u);
  EXPECT_GT(result->report.num_tasks, 0u);
  EXPECT_GE(result->report.overall, 0.0);
  EXPECT_LE(result->report.overall, 1.0);
  EXPECT_EQ(result->report.per_domain.size(), 2u);
}

TEST(ExperimentTest, QualificationSelectionModes) {
  Dataset ds = TinyDataset();
  WorkerPoolOptions pool_options;
  pool_options.num_workers = 8;
  auto pool = GenerateWorkerPool(ds, pool_options);
  ICrowdConfig config = TinyConfig();
  config.strategy = StrategyKind::kRandomMV;
  config.qualification_greedy = false;
  auto random_qf = RunExperiment(ds, pool, config);
  ASSERT_TRUE(random_qf.ok());
  config.qualification_greedy = true;
  auto inf_qf = RunExperiment(ds, pool, config);
  ASSERT_TRUE(inf_qf.ok());
  // Greedy influence never loses to random selection on influence.
  EXPECT_GE(inf_qf->qualification.influence,
            random_qf->qualification.influence);
}

TEST(ExperimentTest, AggregatePredictionsDispatch) {
  std::vector<Label> consensus(TinyDataset().size(), kYes);
  std::vector<AnswerRecord> work_answers = {{0, 0, kNo, 0.0},
                                            {0, 1, kNo, 0.0}};
  Strategy consensus_strategy;
  consensus_strategy.aggregation = AggregationKind::kConsensus;
  auto via_consensus =
      AggregatePredictions(consensus_strategy, consensus, work_answers);
  ASSERT_TRUE(via_consensus.ok());
  EXPECT_EQ((*via_consensus)[0], kYes);
  Strategy mv_strategy;
  mv_strategy.aggregation = AggregationKind::kMajorityVote;
  auto via_mv = AggregatePredictions(mv_strategy, consensus, work_answers);
  ASSERT_TRUE(via_mv.ok());
  EXPECT_EQ((*via_mv)[0], kNo);
  Strategy pv_strategy;
  pv_strategy.aggregation = AggregationKind::kProbabilisticVerification;
  EXPECT_FALSE(  // no accuracy_fn
      AggregatePredictions(pv_strategy, consensus, work_answers).ok());
}

TEST(ExperimentTest, FailsOnEmptyDataset) {
  Dataset empty("empty");
  std::vector<WorkerProfile> pool(3);
  ICrowdConfig config = TinyConfig();
  config.strategy = StrategyKind::kRandomMV;
  auto result = RunExperiment(empty, pool, config);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------- ICrowd --

TEST(ICrowdTest, CreateValidates) {
  ICrowdConfig config = TinyConfig();
  Dataset empty("empty");
  EXPECT_FALSE(ICrowd::Create(empty, config).ok());
  config.assignment_size = 2;
  EXPECT_FALSE(ICrowd::Create(TinyDataset(), config).ok());
}

TEST(ICrowdTest, HostConfigIsEntirelyOffFingerprint) {
  // The v2 config split's core guarantee: no HostConfig field enters the
  // campaign fingerprint, so a journal recorded under one execution shape
  // (threads, shards, labels, journal layout) restores under any other.
  ICrowdConfig config = TinyConfig();
  auto reference = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(reference.ok());

  HostConfig host;
  host.num_shards = 8;
  host.num_threads = 4;
  host.pool = std::make_shared<ThreadPool>(2);
  host.campaign_label = "relabeled";
  host.journal_dir = "/tmp/elsewhere";
  host.fsync_journal = true;
  host.queue_capacity = 7;
  host.max_batch = 3;
  host.serve_obs_port = 0;
  host.serve_obs_bind = "0.0.0.0";
  auto reshaped = ICrowd::Create(TinyDataset(), config, host);
  ASSERT_TRUE(reshaped.ok());
  EXPECT_EQ((*reference)->fingerprint(), (*reshaped)->fingerprint());

  // Decision-relevant config must still move the fingerprint.
  std::vector<std::pair<std::string, std::function<void(ICrowdConfig*)>>>
      edits = {
          {"assignment_size", [](ICrowdConfig* c) { c->assignment_size += 2; }},
          {"graph.measure",
           [](ICrowdConfig* c) {
             c->graph.measure = SimilarityMeasure::kCosineTfIdf;
           }},
          {"graph.threshold",
           [](ICrowdConfig* c) { c->graph.threshold *= 0.5; }},
          {"ppr.prune_epsilon",
           [](ICrowdConfig* c) { c->estimator.ppr.prune_epsilon *= 10.0; }},
      };
  for (const auto& [field, edit] : edits) {
    ICrowdConfig changed = TinyConfig();
    edit(&changed);
    auto different = ICrowd::Create(TinyDataset(), changed);
    ASSERT_TRUE(different.ok()) << field;
    EXPECT_NE((*reference)->fingerprint(), (*different)->fingerprint())
        << field;
  }

  // Feature vectors shape only the Euclidean graph: one moved point must
  // move a Euclidean campaign's fingerprint and leave a text campaign's
  // as it was.
  auto with_features = [](double first) {
    const Dataset tiny = TinyDataset();
    Dataset ds(tiny.name());
    for (const Microtask& task : tiny.tasks()) {
      Microtask copy = task;
      copy.features = {task.id == 0 ? first : 0.0,
                       static_cast<double>(task.id)};
      ds.AddTask(std::move(copy));
    }
    return ds;
  };
  ICrowdConfig euclidean = TinyConfig();
  euclidean.graph.measure = SimilarityMeasure::kEuclidean;
  auto placed = ICrowd::Create(with_features(0.0), euclidean);
  auto moved = ICrowd::Create(with_features(0.5), euclidean);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_NE((*placed)->fingerprint(), (*moved)->fingerprint()) << "features";
  auto text = ICrowd::Create(with_features(0.5), TinyConfig());
  ASSERT_TRUE(text.ok());
  EXPECT_EQ((*reference)->fingerprint(), (*text)->fingerprint());
}

TEST(ICrowdTest, FullPlatformLifecycle) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  EXPECT_EQ(system.qualification_tasks().size(), 2u);
  EXPECT_FALSE(system.Finished());

  // Drive three perfectly accurate workers through the protocol.
  Dataset reference = TinyDataset();
  std::vector<WorkerId> workers;
  for (int i = 0; i < 3; ++i) {
    auto arrived = system.OnWorkerArrived();
    ASSERT_TRUE(arrived.ok());
    workers.push_back(*arrived);
  }
  bool progress = true;
  int guard = 0;
  while (!system.Finished() && progress && ++guard < 200) {
    progress = false;
    for (WorkerId w : workers) {
      if (system.Finished()) break;
      auto task = system.RequestTask(w);
      ASSERT_TRUE(task.ok()) << task.status().ToString();
      if (!task->has_value()) continue;
      progress = true;
      ASSERT_TRUE(
          system.SubmitAnswer(w, **task, *reference.task(**task).ground_truth)
              .ok());
    }
  }
  EXPECT_TRUE(system.Finished());
  std::vector<Label> results = system.Results();
  for (size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(results[t], *reference.task(static_cast<TaskId>(t)).ground_truth)
        << "task " << t;
  }
  for (WorkerId w : workers) {
    EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kActive);
  }
}

TEST(ICrowdTest, RejectsBadWorkerAfterWarmup) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  Dataset reference = TinyDataset();
  WorkerId w = *system.OnWorkerArrived();
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kWarmup);
  // Answer all warm-up tasks wrong.
  for (;;) {
    auto task = system.RequestTask(w);
    ASSERT_TRUE(task.ok());
    if (!task->has_value()) break;
    Label wrong =
        *reference.task(**task).ground_truth == kYes ? kNo : kYes;
    ASSERT_TRUE(system.SubmitAnswer(w, **task, wrong).ok());
    if (system.worker_status(w) != ICrowd::WorkerStatus::kWarmup) break;
  }
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kRejected);
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  EXPECT_FALSE(task->has_value());
}

TEST(ICrowdTest, ProtocolGuards) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  // Unknown worker.
  EXPECT_FALSE(system.RequestTask(42).ok());
  EXPECT_EQ(system.worker_status(42), ICrowd::WorkerStatus::kUnknown);
  WorkerId w = *system.OnWorkerArrived();
  // Submitting for a task not held fails.
  EXPECT_EQ(system.SubmitAnswer(w, 0, kYes).code(),
            StatusCode::kFailedPrecondition);
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  ASSERT_TRUE(task->has_value());
  // Requesting again while holding fails.
  EXPECT_EQ(system.RequestTask(w).status().code(),
            StatusCode::kFailedPrecondition);
  // Submitting a different task than held fails.
  TaskId held = **task;
  TaskId other = (held + 1) % static_cast<TaskId>(system.dataset().size());
  EXPECT_FALSE(system.SubmitAnswer(w, other, kYes).ok());
  EXPECT_TRUE(system.SubmitAnswer(w, held, kYes).ok());
}

TEST(ICrowdTest, ActivityWindowShrinksActiveSet) {
  ICrowdConfig config = TinyConfig();
  config.activity_window_seconds = 10.0;
  config.warmup.tasks_per_worker = 1;
  auto clock = std::make_shared<ManualClock>();
  config.clock = clock;
  auto icrowd = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  Dataset reference = TinyDataset();

  auto run_through_warmup = [&](WorkerId w) {
    for (;;) {
      auto task = system.RequestTask(w);
      ASSERT_TRUE(task.ok());
      ASSERT_TRUE(task->has_value());
      ASSERT_TRUE(
          system.SubmitAnswer(w, **task, *reference.task(**task).ground_truth)
              .ok());
      if (system.worker_status(w) == ICrowd::WorkerStatus::kActive) return;
    }
  };
  WorkerId w0 = *system.OnWorkerArrived();
  WorkerId w1 = *system.OnWorkerArrived();
  clock->Set(1.0);
  run_through_warmup(w0);
  run_through_warmup(w1);
  EXPECT_EQ(system.ActiveWorkers().size(), 2u);
  // w1 keeps requesting; w0 goes silent past the window.
  clock->Set(20.0);
  auto task = system.RequestTask(w1);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(system.ActiveWorkers(), (std::vector<WorkerId>{w1}));
  // w0 comes back: active again.
  if (task->has_value()) {
    ASSERT_TRUE(
        system.SubmitAnswer(w1, **task, *reference.task(**task).ground_truth)
            .ok());
  }
  auto again = system.RequestTask(w0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(system.ActiveWorkers().size(), 2u);
}

TEST(ICrowdTest, WorkerLeavingReleasesNothingTwice) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  WorkerId w = *system.OnWorkerArrived();
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  EXPECT_TRUE(system.OnWorkerLeft(w).ok());
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kLeft);
  // Leaving again is harmless, and unknown ids are reported as such.
  EXPECT_TRUE(system.OnWorkerLeft(w).ok());
  EXPECT_EQ(system.OnWorkerLeft(999).code(), StatusCode::kNotFound);
  auto after = system.RequestTask(w);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->has_value());
}

}  // namespace
}  // namespace icrowd
