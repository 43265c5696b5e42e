#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "common/binary_io.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"

#include "estimation/accuracy_estimator.h"
#include "estimation/observed_accuracy.h"
#include "graph/similarity_graph.h"
#include "model/campaign_state.h"
#include "model/dataset.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

Dataset ClusteredDataset() {
  // Six tasks in two domains; ids 0-2 = "alpha", 3-5 = "beta".
  Dataset ds("clustered");
  for (int i = 0; i < 6; ++i) {
    Microtask t;
    t.text = "task";
    t.domain = i < 3 ? "alpha" : "beta";
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  return ds;
}

SimilarityGraph TwoTriangles() {
  return SimilarityGraph::FromEdges(6, {{0, 1, 1.0},
                                        {1, 2, 1.0},
                                        {0, 2, 1.0},
                                        {3, 4, 1.0},
                                        {4, 5, 1.0},
                                        {3, 5, 1.0}});
}

/// Estimate rows for workers [0, num_workers) over tasks [0, num_tasks),
/// filled from `fn`: the form Eq. (5) reads co-workers' estimates in.
class Rows {
 public:
  Rows(size_t num_workers, size_t num_tasks, const AccuracyFn& fn)
      : storage_(num_workers, std::vector<double>(num_tasks)) {
    for (size_t w = 0; w < num_workers; ++w) {
      for (size_t t = 0; t < num_tasks; ++t) {
        storage_[w][t] = fn(static_cast<WorkerId>(w), static_cast<TaskId>(t));
      }
      rows_.push_back(storage_[w].data());
    }
  }
  operator const AccuracyRows&() const { return rows_; }

 private:
  std::vector<std::vector<double>> storage_;
  AccuracyRows rows_;
};

// ------------------------------------------------------ ObservedAccuracy --

TEST(ObservedAccuracyTest, AgreementWithStrongCoworkersIsHigh) {
  // Worker 0 agrees with a consensus backed by two accurate co-workers.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  Rows accuracy(3, 1, [](WorkerId, TaskId) { return 0.9; });
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // P(consensus correct) = p^2(1-p) / (p^2(1-p) + (1-p)^2 p) = p = 0.9.
  EXPECT_NEAR(q, 0.9, 1e-9);
}

TEST(ObservedAccuracyTest, DisagreementIsComplement) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kNo, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  Rows accuracy(3, 1, [](WorkerId, TaskId) { return 0.9; });
  double agree = ObservedAccuracyOnConsensusTask(1, answers, kYes, accuracy);
  double disagree =
      ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(agree + disagree, 1.0, 1e-9);
  EXPECT_LT(disagree, 0.5);
}

TEST(ObservedAccuracyTest, UnanimousConsensusGivesHighConfidence) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  Rows accuracy(3, 1, [](WorkerId, TaskId) { return 0.8; });
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // Unanimity from three 0.8 workers: strongly correct.
  EXPECT_GT(q, 0.95);
}

TEST(ObservedAccuracyTest, WeakCoworkersGiveUncertainGrade) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  Rows accuracy(3, 1, [](WorkerId, TaskId) { return 0.51; });
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(q, 0.51, 0.02);  // barely better than a coin flip
}

TEST(ObservedAccuracyTest, MatchesPaperEquation5Form) {
  // Heterogeneous accuracies; verify against a direct Eq. (5) evaluation.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kNo, 1.0}, {0, 2, kYes, 2.0}};
  Rows accuracy(3, 1, [](WorkerId w, TaskId) {
    return w == 0 ? 0.8 : (w == 1 ? 0.6 : 0.7);
  });
  // W1 = {0, 2} (match consensus kYes), W2 = {1}.
  double p1 = 0.8 * 0.7, p1_bar = 0.2 * 0.3;
  double p2 = 0.6, p2_bar = 0.4;
  double expected = (p1 * p2_bar) / (p1 * p2_bar + p1_bar * p2);
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(q, expected, 1e-9);
}

TEST(ComputeObservedTest, QualificationUsesGroundTruthExactly) {
  Dataset ds = ClusteredDataset();
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.MarkQualification(3);
  state.ForceComplete(0, kYes);
  state.ForceComplete(3, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.MarkAssigned(3, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());  // correct
  ASSERT_TRUE(state.RecordAnswer({3, w, kNo, 1.0}).ok());   // wrong
  auto observed = ComputeObservedAccuracies(
      w, state, ds, {1, 0, 0, 1, 0, 0},
      Rows(1, ds.size(), [](WorkerId, TaskId) { return 0.7; }));
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].first, 0);
  EXPECT_DOUBLE_EQ(observed[0].second, 1.0);
  EXPECT_EQ(observed[1].first, 3);
  EXPECT_DOUBLE_EQ(observed[1].second, 0.0);
}

TEST(ComputeObservedTest, SkipsUncompletedTasks) {
  Dataset ds = ClusteredDataset();
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  ASSERT_TRUE(state.MarkAssigned(1, w).ok());
  ASSERT_TRUE(state.RecordAnswer({1, w, kYes, 0.0}).ok());
  // One answer of three: not globally completed with k = 3... except the
  // (k+1)/2 = 2 rule; a single vote is insufficient.
  auto observed = ComputeObservedAccuracies(
      w, state, ds, {},
      Rows(1, ds.size(), [](WorkerId, TaskId) { return 0.7; }));
  EXPECT_TRUE(observed.empty());
}

// ----------------------------------------------------- AccuracyEstimator --

class AccuracyEstimatorTest : public ::testing::Test {
 protected:
  AccuracyEstimatorTest()
      : dataset_(ClusteredDataset()), graph_(TwoTriangles()) {}

  AccuracyEstimator MakeEstimator(AccuracyEstimatorOptions options = {}) {
    auto est = AccuracyEstimator::Create(graph_, options);
    EXPECT_TRUE(est.ok());
    return est.MoveValueOrDie();
  }

  Dataset dataset_;
  SimilarityGraph graph_;
};

TEST_F(AccuracyEstimatorTest, CreateValidatesOptions) {
  AccuracyEstimatorOptions options;
  options.default_accuracy = 1.5;
  EXPECT_FALSE(AccuracyEstimator::Create(graph_, options).ok());
  options = AccuracyEstimatorOptions();
  options.prior_strength = -1.0;
  EXPECT_FALSE(AccuracyEstimator::Create(graph_, options).ok());
}

TEST_F(AccuracyEstimatorTest, UnregisteredWorkerFallsBackToDefault) {
  AccuracyEstimatorOptions options;
  options.default_accuracy = 0.62;
  AccuracyEstimator est = MakeEstimator(options);
  EXPECT_FALSE(est.IsRegistered(0));
  EXPECT_DOUBLE_EQ(est.Accuracy(0, 1), 0.62);
  EXPECT_DOUBLE_EQ(est.FallbackAccuracy(0), 0.62);
  EXPECT_TRUE(est.Observed(0).empty());
}

TEST_F(AccuracyEstimatorTest, RegisteredWorkerUsesWarmupBeforeData) {
  AccuracyEstimator est = MakeEstimator();
  est.RegisterWorker(0, 0.8);
  EXPECT_TRUE(est.IsRegistered(0));
  EXPECT_DOUBLE_EQ(est.Accuracy(0, 3), 0.8);
}

TEST_F(AccuracyEstimatorTest, PropagatesQualificationSignalWithinCluster) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 3});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.MarkQualification(3);
  state.ForceComplete(0, kYes);
  state.ForceComplete(3, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.MarkAssigned(3, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());  // alpha: right
  ASSERT_TRUE(state.RecordAnswer({3, w, kNo, 1.0}).ok());   // beta: wrong
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  // Unseen alpha tasks (1, 2) must rank above unseen beta tasks (4, 5).
  EXPECT_GT(est.Accuracy(w, 1), est.Accuracy(w, 4));
  EXPECT_GT(est.Accuracy(w, 2), est.Accuracy(w, 5));
  EXPECT_GT(est.Accuracy(w, 1), 0.5);
  EXPECT_LT(est.Accuracy(w, 4), 0.5);
}

TEST_F(AccuracyEstimatorTest, ObservedVectorExposed) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  ASSERT_EQ(est.Observed(w).size(), 1u);
  EXPECT_DOUBLE_EQ(est.Observed(w)[0].second, 1.0);
}

TEST_F(AccuracyEstimatorTest, UncertaintyDropsWithObservations) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 1});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  // Maximal uncertainty before any estimate.
  EXPECT_NEAR(est.Uncertainty(w, 2), 1.0 / 12.0, 1e-12);
  for (TaskId t : {0, 1}) {
    state.MarkQualification(t);
    state.ForceComplete(t, kYes);
    ASSERT_TRUE(state.MarkAssigned(t, w).ok());
    ASSERT_TRUE(state.RecordAnswer({t, w, kYes, 0.0}).ok());
  }
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  // Task 2 is adjacent to both observations: uncertainty must shrink.
  EXPECT_LT(est.Uncertainty(w, 2), 1.0 / 12.0);
  // Far cluster stays maximally uncertain.
  EXPECT_GT(est.Uncertainty(w, 4), est.Uncertainty(w, 2));
}

TEST_F(AccuracyEstimatorTest, RawScoresMatchLinearity) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  std::vector<double> raw = est.RawScores(w);
  std::vector<double> expected = est.engine().EstimateFromObserved({{0, 1.0}});
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(raw[i], expected[i], 1e-12);
  }
}

/// One registered worker with the given observations, as RestoreState
/// reads it.
std::vector<uint8_t> OneWorkerState(const SparseEntries& observed) {
  BinaryWriter writer;
  writer.U64(1);
  writer.U8(1);  // registered
  writer.U8(1);  // has_estimate
  writer.F64(0.6);
  writer.U64(observed.size());
  for (const auto& [task, q] : observed) {
    writer.I32(task);
    writer.F64(q);
  }
  return writer.Release();
}

TEST_F(AccuracyEstimatorTest, OnePassRebuildMatchesTwoPropagations) {
  // q = 0 scatters only into the mass, q = 0.5 (zero confidence) into
  // neither; the others into both. The fused pass must reproduce the two
  // separate Lemma 3 propagations bit for bit.
  const SparseEntries observed = {{0, 1.0}, {1, 0.0}, {2, 0.5}, {4, 0.8}};
  AccuracyEstimator est = MakeEstimator();
  std::vector<uint8_t> state = OneWorkerState(observed);
  BinaryReader reader(state);
  ASSERT_TRUE(est.RestoreState(&reader).ok());

  const AccuracyEstimatorOptions options;
  SparseEntries weighted;
  SparseEntries mask;
  double q_sum = 0.0;
  for (const auto& [t, q] : observed) {
    const double confidence = std::abs(2.0 * q - 1.0);
    weighted.emplace_back(t, q * confidence);
    mask.emplace_back(t, confidence);
    q_sum += q;
  }
  const std::vector<double> numerator =
      est.engine().EstimateFromObserved(weighted);
  const std::vector<double> mass = est.engine().EstimateFromObserved(mask);
  const double fallback = ClampProbability(
      (0.6 * options.prior_strength + q_sum) /
          (options.prior_strength + static_cast<double>(observed.size())),
      0.02);
  const double prior_mass = options.prior_strength *
                            options.ppr.alpha / (1.0 + options.ppr.alpha);
  for (size_t t = 0; t < numerator.size(); ++t) {
    const double expected =
        mass[t] <= options.min_mass
            ? fallback
            : ClampProbability((numerator[t] + prior_mass * fallback) /
                                   (mass[t] + prior_mass),
                               0.02);
    EXPECT_EQ(est.Accuracy(0, static_cast<TaskId>(t)), expected) << t;
  }
}

TEST_F(AccuracyEstimatorTest, RestoreRefusesObservationOfUnknownTask) {
  AccuracyEstimator est = MakeEstimator();
  for (TaskId task : {-1, static_cast<TaskId>(dataset_.size())}) {
    std::vector<uint8_t> state = OneWorkerState({{task, 1.0}});
    BinaryReader reader(state);
    EXPECT_FALSE(est.RestoreState(&reader).ok()) << task;
  }
}

TEST_F(AccuracyEstimatorTest, RefreshUnregisteredWorkerAutoRegisters) {
  AccuracyEstimator est = MakeEstimator();
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  est.Refresh(w, state, dataset_);  // no observations yet
  EXPECT_TRUE(est.IsRegistered(w));
}

TEST_F(AccuracyEstimatorTest, EstimatesStayInProbabilityRange) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 1, 2});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  for (TaskId t : {0, 1, 2}) {
    state.MarkQualification(t);
    state.ForceComplete(t, kYes);
    ASSERT_TRUE(state.MarkAssigned(t, w).ok());
    ASSERT_TRUE(state.RecordAnswer({t, w, kYes, 0.0}).ok());
  }
  est.RegisterWorker(w, 1.0);  // perfect warm-up
  est.Refresh(w, state, dataset_);
  for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t) {
    double p = est.Accuracy(w, t);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

// ------------------------------------------------------- Row oracle --

// The estimate as it was computed on every read before the estimator kept
// rows: from the two Lemma 3 sums of the worker's observations, its
// fallback and the options. Kept only here, as the oracle the served rows
// must equal bit for bit.
struct ReferenceModel {
  bool has_estimate = false;
  double fallback = 0.0;
  std::vector<double> numerator;
  std::vector<double> mass;
};

// `warmup` is the accuracy the worker was registered with; `observed` is
// null for a worker without an estimate yet.
ReferenceModel MakeReference(const PprEngine& engine,
                             const AccuracyEstimatorOptions& options,
                             double warmup, const SparseEntries* observed) {
  ReferenceModel model;
  const double clamped = ClampProbability(warmup, 0.02);
  model.fallback = clamped;
  if (observed == nullptr) return model;
  model.has_estimate = true;
  SparseEntries weighted;
  SparseEntries mask;
  double q_sum = 0.0;
  for (const auto& [t, q] : *observed) {
    const double confidence = std::abs(2.0 * q - 1.0);
    weighted.emplace_back(t, q * confidence);
    mask.emplace_back(t, confidence);
    q_sum += q;
  }
  model.fallback = ClampProbability(
      (clamped * options.prior_strength + q_sum) /
          (options.prior_strength + static_cast<double>(observed->size())),
      0.02);
  model.numerator = engine.EstimateFromObserved(weighted);
  model.mass = engine.EstimateFromObserved(mask);
  return model;
}

double SeedSelfMass(const AccuracyEstimatorOptions& options) {
  return options.ppr.alpha / (1.0 + options.ppr.alpha);
}

double ReferenceAccuracy(const ReferenceModel& model,
                         const AccuracyEstimatorOptions& options,
                         TaskId task) {
  if (!model.has_estimate || task < 0 ||
      static_cast<size_t>(task) >= model.mass.size()) {
    return model.fallback;
  }
  double mass = model.mass[task];
  if (mass <= options.min_mass) return model.fallback;
  double prior_mass = options.prior_strength * SeedSelfMass(options);
  double p = (model.numerator[task] + prior_mass * model.fallback) /
             (mass + prior_mass);
  return ClampProbability(p, 0.02);
}

double ReferenceUncertainty(const ReferenceModel& model,
                            const AccuracyEstimatorOptions& options,
                            TaskId task) {
  if (!model.has_estimate || task < 0 ||
      static_cast<size_t>(task) >= model.mass.size()) {
    return BetaVariance(1.0, 1.0);
  }
  double scale = 1.0 / SeedSelfMass(options);
  double n1 = std::max(0.0, model.numerator[task] * scale);
  double n = std::max(n1, model.mass[task] * scale);
  double n0 = n - n1;
  return BetaVariance(n1 + 1.0, n0 + 1.0);
}

// A 120-task, two-cluster campaign in which 16 workers hold about 20
// graded answers each: every worker answered the two qualification tasks,
// and each other task was handed to three random workers (every fifth to
// one only, so it stays open). Every worker is registered and refreshed
// once, serially.
class RowOracleTest : public ::testing::Test {
 protected:
  static constexpr size_t kTasks = 120;
  static constexpr int32_t kRing = static_cast<int32_t>(kTasks / 2);
  static constexpr size_t kWorkers = 16;

  // Two rings of kRing tasks, each task linked to the next two.
  static SimilarityGraph TwoRings() {
    std::vector<std::tuple<int32_t, int32_t, double>> edges;
    for (int32_t t = 0; t < static_cast<int32_t>(kTasks); ++t) {
      const int32_t base = t < kRing ? 0 : kRing;
      for (int32_t step : {1, 2}) {
        const int32_t u = base + (t - base + step) % kRing;
        edges.emplace_back(std::min(t, u), std::max(t, u), 1.0 / step);
      }
    }
    return SimilarityGraph::FromEdges(kTasks, edges);
  }

  static Dataset TwoDomains() {
    Dataset dataset("row-oracle");
    for (size_t t = 0; t < kTasks; ++t) {
      Microtask task;
      task.text = "task";
      task.domain = static_cast<int32_t>(t) < kRing ? "alpha" : "beta";
      task.ground_truth = t % 3 == 0 ? kNo : kYes;
      dataset.AddTask(std::move(task));
    }
    return dataset;
  }

  RowOracleTest()
      : dataset_(TwoDomains()), graph_(TwoRings()), state_(kTasks, 3) {
    auto est = AccuracyEstimator::Create(graph_, options_);
    EXPECT_TRUE(est.ok());
    estimator_ = std::make_unique<AccuracyEstimator>(est.MoveValueOrDie());
    estimator_->SetQualificationTasks({0, kRing});

    Rng rng(7);
    for (size_t i = 0; i < kWorkers; ++i) {
      workers_.push_back(state_.RegisterWorker());
      skill_.push_back(rng.Uniform(0.55, 0.9));
    }
    for (TaskId t : {0, kRing}) {
      state_.MarkQualification(t);
      state_.ForceComplete(t, *dataset_.task(t).ground_truth);
      for (WorkerId w : workers_) Answer(t, w, rng);
    }
    for (TaskId t = 1; t < static_cast<TaskId>(kTasks); ++t) {
      if (t == kRing) continue;
      const size_t answers = t % 5 == 0 ? 1 : 3;
      for (size_t i : rng.SampleWithoutReplacement(kWorkers, answers)) {
        Answer(t, workers_[i], rng);
      }
    }
    for (WorkerId w : workers_) {
      warmup_.push_back(0.5 + 0.02 * static_cast<double>(w));
      estimator_->RegisterWorker(w, warmup_.back());
      estimator_->Refresh(w, state_, dataset_);
    }
  }

  void Answer(TaskId t, WorkerId w, Rng& rng) {
    const Label truth = *dataset_.task(t).ground_truth;
    const Label label = rng.Bernoulli(skill_[w]) ? truth : 1 - truth;
    ASSERT_TRUE(state_.MarkAssigned(t, w).ok());
    ASSERT_TRUE(state_.RecordAnswer({t, w, label, 0.0}).ok());
  }

  ReferenceModel Reference(const AccuracyEstimator& est, WorkerId w,
                           double warmup) const {
    return MakeReference(est.engine(), options_, warmup, &est.Observed(w));
  }

  // Every served value of `w`, out-of-range task ids included, equals the
  // reference's.
  void ExpectServes(const AccuracyEstimator& est, WorkerId w,
                    const ReferenceModel& reference) const {
    for (TaskId t = -2; t < static_cast<TaskId>(kTasks) + 2; ++t) {
      EXPECT_EQ(est.Accuracy(w, t), ReferenceAccuracy(reference, options_, t))
          << "worker " << w << " task " << t;
      EXPECT_EQ(est.Uncertainty(w, t),
                ReferenceUncertainty(reference, options_, t))
          << "worker " << w << " task " << t;
    }
  }

  Dataset dataset_;
  SimilarityGraph graph_;
  AccuracyEstimatorOptions options_;
  CampaignState state_;
  std::unique_ptr<AccuracyEstimator> estimator_;
  std::vector<WorkerId> workers_;
  std::vector<double> skill_;
  std::vector<double> warmup_;
};

TEST_F(RowOracleTest, RefreshServesTheReadTimeFormulas) {
  for (WorkerId w : workers_) {
    ASSERT_FALSE(estimator_->Observed(w).empty());
    ExpectServes(*estimator_, w, Reference(*estimator_, w, warmup_[w]));
    // The row the scorer reads is the one Accuracy() serves.
    const double* row = estimator_->AccuracyRow(w);
    for (TaskId t = 0; t < static_cast<TaskId>(kTasks); ++t) {
      EXPECT_EQ(row[t], estimator_->Accuracy(w, t));
    }
  }
}

TEST_F(RowOracleTest, RefreshManyGradesAgainstFrozenPreRoundRows) {
  // Complete the open tasks so this round has new consensus to grade.
  Rng rng(11);
  for (TaskId t = 5; t < static_cast<TaskId>(kTasks); t += 5) {
    for (WorkerId w : workers_) {
      if (state_.RemainingSlots(t) == 0) break;
      if (!state_.IsAssignedTo(t, w)) Answer(t, w, rng);
    }
  }
  std::vector<std::vector<double>> pre(kWorkers);
  for (WorkerId w : workers_) {
    for (TaskId t = 0; t < static_cast<TaskId>(kTasks); ++t) {
      pre[w].push_back(estimator_->Accuracy(w, t));
    }
  }
  const Rows pre_rows(kWorkers, kTasks,
                      [&](WorkerId w, TaskId t) { return pre[w][t]; });
  std::vector<uint8_t> is_qualification(kTasks, 0);
  is_qualification[0] = is_qualification[kRing] = 1;
  // Twelve of the sixteen workers are dirty, holding about 250 answers
  // between them: the batch crosses RefreshMany's serial cutoff
  // (kParallelRefreshAnswers), so the pooled call really fans out.
  const std::vector<WorkerId> dirty(workers_.begin(), workers_.begin() + 12);

  AccuracyEstimator serial = *estimator_;
  serial.RefreshMany(dirty, state_, dataset_, nullptr);
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t submitted_before =
      registry.CounterValue("icrowd.pool.tasks_submitted");
  ThreadPool pool(2);
  AccuracyEstimator pooled = *estimator_;
  pooled.RefreshMany(dirty, state_, dataset_, &pool);
  EXPECT_GT(registry.CounterValue("icrowd.pool.tasks_submitted"),
            submitted_before);
  // Refreshing the same workers one by one reads each earlier worker's new
  // row; some grade must come out different, or this case could not tell
  // frozen reads from live ones.
  AccuracyEstimator live = *estimator_;
  for (WorkerId w : dirty) live.Refresh(w, state_, dataset_);

  bool live_differs = false;
  for (WorkerId w : workers_) {
    const bool is_dirty = w < 12;
    for (const AccuracyEstimator* est : {&serial, &pooled}) {
      if (is_dirty) {
        EXPECT_EQ(est->Observed(w),
                  ComputeObservedAccuracies(w, state_, dataset_,
                                            is_qualification, pre_rows))
            << "worker " << w;
      } else {
        EXPECT_EQ(est->Observed(w), estimator_->Observed(w));
      }
      ExpectServes(*est, w, Reference(*est, w, warmup_[w]));
    }
    live_differs = live_differs || live.Observed(w) != serial.Observed(w);
  }
  EXPECT_TRUE(live_differs);
}

TEST_F(RowOracleTest, ReRegisteringAnEstimatedWorkerRewritesItsRows) {
  // Re-registration replaces the fallback but keeps the observations, so
  // the reference is the old model with the new warm-up as its fallback.
  const WorkerId w = workers_[3];
  ReferenceModel expected = Reference(*estimator_, w, warmup_[w]);
  estimator_->RegisterWorker(w, 0.93);
  expected.fallback = ClampProbability(0.93, 0.02);
  ExpectServes(*estimator_, w, expected);
  ASSERT_NE(estimator_->Accuracy(w, 1),
            ReferenceAccuracy(Reference(*estimator_, w, warmup_[w]), options_,
                              1));
}

TEST_F(RowOracleTest, RestoreServesTheReadTimeFormulas) {
  // One more worker is registered but never refreshed.
  const WorkerId fresh = state_.RegisterWorker();
  estimator_->RegisterWorker(fresh, 0.75);
  BinaryWriter writer;
  estimator_->SerializeState(&writer);
  std::vector<uint8_t> bytes = writer.Release();
  auto restored = AccuracyEstimator::Create(graph_, options_);
  ASSERT_TRUE(restored.ok());
  BinaryReader reader(bytes);
  ASSERT_TRUE(restored->RestoreState(&reader).ok());
  for (WorkerId w : workers_) {
    ExpectServes(*restored, w, Reference(*estimator_, w, warmup_[w]));
  }
  ExpectServes(*restored, fresh,
               MakeReference(restored->engine(), options_, 0.75, nullptr));
}

TEST_F(RowOracleTest, UnregisteredAndUnestimatedWorkersServeConstants) {
  const WorkerId unregistered = static_cast<WorkerId>(kWorkers) + 3;
  const WorkerId unestimated = state_.RegisterWorker();
  estimator_->RegisterWorker(unestimated, 0.99);  // clamped to 0.98
  ExpectServes(*estimator_, unestimated,
               MakeReference(estimator_->engine(), options_, 0.99, nullptr));
  for (TaskId t = -2; t < static_cast<TaskId>(kTasks) + 2; ++t) {
    EXPECT_EQ(estimator_->Accuracy(unregistered, t), options_.default_accuracy);
    EXPECT_EQ(estimator_->Accuracy(-1, t), options_.default_accuracy);
    EXPECT_EQ(estimator_->Uncertainty(unregistered, t),
              BetaVariance(1.0, 1.0));
  }
  const double* row = estimator_->AccuracyRow(unregistered);
  for (TaskId t = 0; t < static_cast<TaskId>(kTasks); ++t) {
    EXPECT_EQ(row[t], options_.default_accuracy);
  }
}

class PriorStrengthTest : public ::testing::TestWithParam<double> {};

TEST_P(PriorStrengthTest, StrongerPriorPullsTowardFallback) {
  Dataset ds = ClusteredDataset();
  SimilarityGraph graph = TwoTriangles();
  AccuracyEstimatorOptions options;
  options.prior_strength = GetParam();
  auto est = AccuracyEstimator::Create(graph, options);
  ASSERT_TRUE(est.ok());
  est->SetQualificationTasks({0});
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est->RegisterWorker(w, 0.5);
  est->Refresh(w, state, ds);
  double p = est->Accuracy(w, 1);
  // Always between the fallback and the observed 1.0 signal.
  EXPECT_GT(p, est->FallbackAccuracy(w) - 1e-9);
  EXPECT_LT(p, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Priors, PriorStrengthTest,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0));

}  // namespace
}  // namespace icrowd
