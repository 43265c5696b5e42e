#include "estimation/observed_accuracy.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace icrowd {

double ObservedAccuracyOnConsensusTask(WorkerId worker,
                                       const std::vector<AnswerRecord>& answers,
                                       Label consensus,
                                       const AccuracyRows& accuracy) {
  // W1: workers agreeing with the consensus; W2: the rest. In log space:
  //   log(P1) + log(P̄2)  vs  log(P̄1) + log(P2)
  // where Pi / P̄i are the products of p / (1-p) over Wi (Eq. 5).
  double log_p1 = 0.0, log_p1_bar = 0.0;
  double log_p2 = 0.0, log_p2_bar = 0.0;
  bool worker_agrees = false;
  bool worker_found = false;
  for (const AnswerRecord& a : answers) {
    double p = ClampProbability(accuracy[a.worker][a.task]);
    if (a.label == consensus) {
      log_p1 += std::log(p);
      log_p1_bar += std::log(1.0 - p);
    } else {
      log_p2 += std::log(p);
      log_p2_bar += std::log(1.0 - p);
    }
    if (a.worker == worker) {
      worker_found = true;
      worker_agrees = (a.label == consensus);
    }
  }
  (void)worker_found;  // asserted by callers via CampaignState invariants
  // P(consensus correct) = P1·P̄2 / (P1·P̄2 + P̄1·P2).
  double log_correct = log_p1 + log_p2_bar;
  double log_incorrect = log_p1_bar + log_p2;
  double denom = LogSumExp({log_correct, log_incorrect});
  double consensus_correct = std::exp(log_correct - denom);
  return worker_agrees ? consensus_correct : 1.0 - consensus_correct;
}

SparseEntries ComputeObservedAccuracies(
    WorkerId worker, const CampaignState& state, const Dataset& dataset,
    const std::vector<uint8_t>& is_qualification,
    const AccuracyRows& accuracy) {
  SparseEntries observed;
  for (const AnswerRecord& a : state.WorkerAnswers(worker)) {
    if (!state.IsCompleted(a.task)) continue;
    double q;
    const size_t task = static_cast<size_t>(a.task);
    if (task < is_qualification.size() && is_qualification[task] &&
        dataset.task(a.task).ground_truth.has_value()) {
      q = (a.label == *dataset.task(a.task).ground_truth) ? 1.0 : 0.0;
    } else {
      auto consensus = state.Consensus(a.task);
      if (!consensus.has_value()) continue;  // force-completed w/o label
      q = ObservedAccuracyOnConsensusTask(worker, state.Answers(a.task),
                                          *consensus, accuracy);
    }
    observed.emplace_back(a.task, q);
  }
  std::sort(observed.begin(), observed.end());
  return observed;
}

}  // namespace icrowd
