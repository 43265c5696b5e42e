#include <gtest/gtest.h>

#include <cmath>

#include "common/binary_io.h"
#include "common/math_util.h"

#include "estimation/accuracy_estimator.h"
#include "estimation/observed_accuracy.h"
#include "graph/similarity_graph.h"
#include "model/campaign_state.h"
#include "model/dataset.h"

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

// ------------------------------------------------------ ObservedAccuracy --

TEST(ObservedAccuracyTest, AgreementWithStrongCoworkersIsHigh) {
  // Worker 0 agrees with a consensus backed by two accurate co-workers.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.9; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // P(consensus correct) = p^2(1-p) / (p^2(1-p) + (1-p)^2 p) = p = 0.9.
  EXPECT_NEAR(q, 0.9, 1e-9);
}

TEST(ObservedAccuracyTest, DisagreementIsComplement) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kNo, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.9; };
  double agree = ObservedAccuracyOnConsensusTask(1, answers, kYes, accuracy);
  double disagree =
      ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(agree + disagree, 1.0, 1e-9);
  EXPECT_LT(disagree, 0.5);
}

TEST(ObservedAccuracyTest, UnanimousConsensusGivesHighConfidence) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.8; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // Unanimity from three 0.8 workers: strongly correct.
  EXPECT_GT(q, 0.95);
}

TEST(ObservedAccuracyTest, WeakCoworkersGiveUncertainGrade) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.51; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(q, 0.51, 0.02);  // barely better than a coin flip
}

TEST(ObservedAccuracyTest, MatchesPaperEquation5Form) {
  // Heterogeneous accuracies; verify against a direct Eq. (5) evaluation.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kNo, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId w, TaskId) {
    return w == 0 ? 0.8 : (w == 1 ? 0.6 : 0.7);
  };
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
      w, state, ds, {0, 3}, [](WorkerId, TaskId) { return 0.7; });
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
      w, state, ds, {}, [](WorkerId, TaskId) { return 0.7; });
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
