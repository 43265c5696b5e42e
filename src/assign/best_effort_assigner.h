#ifndef ICROWD_ASSIGN_BEST_EFFORT_ASSIGNER_H_
#define ICROWD_ASSIGN_BEST_EFFORT_ASSIGNER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "assign/assigner.h"
#include "estimation/accuracy_estimator.h"

namespace icrowd {

/// The BestEffort alternative of §6.3.2: adaptively refreshes the
/// graph-based accuracy estimates like Adapt does, but assigns greedily
/// from the *worker's* perspective — the requesting worker simply receives
/// the assignable task on which her own estimated accuracy is highest,
/// ignoring whether better workers exist for that task.
class BestEffortAssigner : public Assigner {
 public:
  /// `dataset` must outlive the assigner.
  BestEffortAssigner(const Dataset* dataset,
                     std::unique_ptr<AccuracyEstimator> estimator)
      : dataset_(dataset), estimator_(std::move(estimator)) {}

  std::string name() const override { return "BestEffort"; }

  void OnWorkerRegistered(WorkerId worker, double warmup_accuracy,
                          const CampaignState& state) override;

  std::optional<TaskId> RequestTask(
      WorkerId worker, const CampaignState& state,
      const std::vector<WorkerId>& active_workers) override;

  void OnAnswer(const AnswerRecord& answer,
                const CampaignState& state) override;

 private:
  const Dataset* dataset_;
  std::unique_ptr<AccuracyEstimator> estimator_;
  std::unordered_set<WorkerId> dirty_;
};

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_BEST_EFFORT_ASSIGNER_H_
