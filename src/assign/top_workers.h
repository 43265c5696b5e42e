#ifndef ICROWD_ASSIGN_TOP_WORKERS_H_
#define ICROWD_ASSIGN_TOP_WORKERS_H_

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "estimation/observed_accuracy.h"
#include "model/campaign_state.h"

namespace icrowd {

/// A candidate assignment <t, Ŵ(t)>: a task together with its top worker
/// set (Definition 3) under the current accuracy estimates.
struct TopWorkerSet {
  TaskId task = -1;
  /// Top workers, descending by estimated accuracy on `task`.
  std::vector<WorkerId> workers;
  /// Estimated accuracies aligned with `workers`.
  std::vector<double> accuracies;

  /// Σ_w p_t^w — the Definition 4 objective contribution.
  double SumAccuracy() const;
  /// Algorithm 3's selection key Σ_w p_t^w / |Ŵ(t)|.
  double AvgAccuracy() const;
  bool empty() const { return workers.empty(); }
};

/// Computes Ŵ(t): the k' = k - |W^d(t)| workers from `active_workers` with
/// the highest estimated accuracy on `task`, excluding workers already
/// assigned to it. Ties break toward smaller worker id (deterministic).
TopWorkerSet ComputeTopWorkerSet(TaskId task, const CampaignState& state,
                                 const std::vector<WorkerId>& active_workers,
                                 const AccuracyFn& accuracy);

/// Step 1 of Algorithm 2: top worker sets for the candidate `tasks`
/// (every uncompleted task on the first planning round; the multi-round
/// planner removes already-planned tasks per round). Tasks with no eligible
/// worker are omitted. With a non-null `pool` the per-task computations run
/// across its workers (each task's set is independent given the frozen
/// accuracy function) and are merged back in task-index order, so the
/// result is identical to the serial loop at any thread count. `accuracy`
/// must be safe to invoke concurrently (any pure read of estimator state
/// is).
std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    ThreadPool* pool = nullptr);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_TOP_WORKERS_H_
