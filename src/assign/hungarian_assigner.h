#ifndef ICROWD_ASSIGN_HUNGARIAN_ASSIGNER_H_
#define ICROWD_ASSIGN_HUNGARIAN_ASSIGNER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assign/assigner.h"
#include "estimation/accuracy_estimator.h"

namespace icrowd {

/// Ablation strategy: adaptive graph-based estimation (like Adapt) but
/// assignment by an exact one-to-one maximum matching (Kuhn's Hungarian
/// algorithm [20]) between active workers and open task slots, instead of
/// the paper's set-packing greedy. Each matching round gives every worker
/// the single task maximizing total estimated accuracy; the k-worker-set
/// structure of Definition 4 (complete tasks with coherent top sets) is
/// deliberately ignored — the bench `ablation_assignment` quantifies what
/// that structure buys.
class HungarianAssigner : public Assigner {
 public:
  /// `dataset` must outlive the assigner.
  HungarianAssigner(const Dataset* dataset,
                    std::unique_ptr<AccuracyEstimator> estimator)
      : dataset_(dataset), estimator_(std::move(estimator)) {}

  std::string name() const override { return "Hungarian"; }

  void OnWorkerRegistered(WorkerId worker, double warmup_accuracy,
                          const CampaignState& state) override;

  std::optional<TaskId> RequestTask(
      WorkerId worker, const CampaignState& state,
      const std::vector<WorkerId>& active_workers) override;

  void OnAnswer(const AnswerRecord& answer,
                const CampaignState& state) override;

 private:
  void RecomputeMatching(const CampaignState& state,
                         const std::vector<WorkerId>& active_workers);

  const Dataset* dataset_;
  std::unique_ptr<AccuracyEstimator> estimator_;
  std::unordered_set<WorkerId> dirty_workers_;
  std::unordered_map<WorkerId, TaskId> planned_;
  bool plan_dirty_ = true;
};

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_HUNGARIAN_ASSIGNER_H_
