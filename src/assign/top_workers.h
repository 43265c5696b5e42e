#ifndef ICROWD_ASSIGN_TOP_WORKERS_H_
#define ICROWD_ASSIGN_TOP_WORKERS_H_

#include <cstdint>
#include <functional>
#include <limits>
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

/// The non-empty top worker sets of one planning round, stored flat so a
/// round reuses the previous round's capacity instead of allocating one
/// vector pair per task. Candidate i is task `tasks[i]` with the workers
/// and accuracies in [begin[i], begin[i + 1]) and Algorithm 3 key `avg[i]`
/// (bit-identical to TopWorkerSet::AvgAccuracy of the same set).
struct CandidateSets {
  std::vector<TaskId> tasks;
  std::vector<double> avg;
  std::vector<size_t> begin = {0};
  std::vector<WorkerId> workers;
  std::vector<double> accuracies;

  size_t size() const { return tasks.size(); }
  void clear();
  /// Closes the entries appended to `workers`/`accuracies` since the last
  /// candidate (at least one) as the set of `task`.
  void Commit(TaskId task);
  void Append(const TopWorkerSet& set);
  TopWorkerSet Get(size_t i) const;
};

/// Definition 3 for one scheme rebuild. Score() evaluates each (task,
/// eligible worker) pair once; each planning round then calls Select(),
/// which picks every open task's top RemainingSlots() workers among the
/// workers still in play without evaluating accuracy again. Ŵ(t) is
/// ordered by accuracy descending, ties toward the smaller worker id, so
/// it is the same set and order a std::partial_sort of all eligible
/// workers gives. Buffers are reused across rebuilds; nothing else is.
class TopWorkerSelector {
 public:
  /// Scores `tasks` × `workers` with `accuracy(worker, task)`, skipping
  /// pairs where the worker already holds the task and tasks with no
  /// remaining slot. With a non-null `pool` and a large enough matrix the
  /// rows fan out across it; each row writes only its own slice, so the
  /// scores are identical at any thread count. `accuracy` must then be safe
  /// to call concurrently (any pure read of estimator state is).
  template <typename Accuracy>
  void Score(const std::vector<TaskId>& tasks, const CampaignState& state,
             const std::vector<WorkerId>& workers, const Accuracy& accuracy,
             ThreadPool* pool) {
    Reset(tasks, state, workers);
    const size_t width = workers_.size();
    ForEachRow(pool, [&](size_t row) {
      if (slots_[row] <= 0) return;
      const TaskId task = tasks_[row];
      double* scores = &scores_[row * width];
      for (size_t j = 0; j < width; ++j) {
        const WorkerId w = workers_[j];
        scores[j] = state.IsAssignedTo(task, w) ? kIneligible
                                                : accuracy(w, task);
      }
    });
  }

  /// Replaces `out` with Ŵ(t) for every scored task t with
  /// `task_planned[t] == 0`, over the workers w with `worker_used[w] == 0`.
  /// Both flag vectors are indexed by id and must cover every scored id.
  /// Tasks whose set comes out empty are left out.
  void Select(const std::vector<uint8_t>& task_planned,
              const std::vector<uint8_t>& worker_used, CandidateSets* out);

 private:
  /// Score of a pair the worker already holds. Estimates are probabilities,
  /// so no real score collides with it.
  static constexpr double kIneligible =
      -std::numeric_limits<double>::infinity();

  void Reset(const std::vector<TaskId>& tasks, const CampaignState& state,
             const std::vector<WorkerId>& workers);
  void ForEachRow(ThreadPool* pool, const std::function<void(size_t)>& fn);

  std::vector<TaskId> tasks_;
  std::vector<WorkerId> workers_;
  std::vector<int> slots_;          // RemainingSlots per row
  std::vector<double> scores_;      // row-major tasks_ × workers_
  std::vector<uint32_t> in_play_;   // Select's columns still in play
};

/// Step 1 of Algorithm 2 on its own: the non-empty top worker sets of
/// `tasks` over `active_workers`, in task order. TopWorkerSelector does the
/// work; this form serves callers that want materialized sets (Table 5's
/// exact solver, benches, tests).
std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    ThreadPool* pool = nullptr);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_TOP_WORKERS_H_
