#ifndef ICROWD_ASSIGN_GREEDY_ASSIGN_H_
#define ICROWD_ASSIGN_GREEDY_ASSIGN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "assign/top_workers.h"

namespace icrowd {

/// Algorithm 3 (GreedyAssign): repeatedly picks the candidate <t, Ŵ(t)>
/// with the maximum average worker accuracy and discards all candidates
/// whose worker set overlaps it, producing a worker-disjoint assignment
/// scheme A*. Ties break toward the smaller task id (deterministic).
///
/// Each pass over the live candidates drops the ones that overlap a used
/// worker and finds the best of the rest, which is accepted next; a
/// rejected candidate never comes back, since the used set only grows. So
/// a round costs O((accepted + 1) · candidates · |Ŵ|) flag reads, and
/// accepts exactly what popping a (average desc, task id asc) max-heap and
/// skipping overlapping sets would accept, in the same order.
///
/// Workers with `(*used_workers)[w]` set on entry count as already taken
/// (the planner's earlier rounds); accepted sets' workers are set on
/// return. `used_workers` is indexed by worker id and must cover every
/// worker in `candidates`. `scheme` receives the accepted candidate
/// indices in acceptance order.
void GreedyAssign(const CandidateSets& candidates,
                  std::vector<uint8_t>* used_workers,
                  std::vector<uint32_t>* scheme);

/// The same pass over materialized sets (empty sets are skipped), for
/// Table 5's comparison with the exact solver, benches and tests.
std::vector<TopWorkerSet> GreedyAssign(
    const std::vector<TopWorkerSet>& candidates);

/// The Definition 4 objective of a scheme: Σ_{<t,Ŵ(t)>} Σ_w p_t^w.
double SchemeObjective(const std::vector<TopWorkerSet>& scheme);

/// Steps 1-2 of Algorithm 2 for one scheme rebuild. One Algorithm 3 pass
/// plans only a few disjoint sets, because the globally best workers
/// appear in almost every top set. With `multi_round`, planned workers and
/// tasks leave and the pass runs again, so each successive tier of workers
/// is planned onto the tasks it contributes most to and step-3 testing
/// stays a corner case. Pairs are scored once per Plan(); each round
/// re-selects top sets among the workers left. Only buffer capacity is
/// kept from one Plan() to the next.
class SchemePlanner {
 public:
  /// Plans `workers` onto `tasks`: sets (*plan)[w] = t for every planned
  /// worker and returns the number of planning rounds run. `rows` and
  /// `pool` are as for TopWorkerSelector::Score. Worker ids index dense
  /// flags, so they must be small non-negative integers, as CampaignState
  /// assigns them.
  size_t Plan(const std::vector<TaskId>& tasks, const CampaignState& state,
              const std::vector<WorkerId>& workers, const AccuracyRows& rows,
              bool multi_round, ThreadPool* pool,
              std::unordered_map<WorkerId, TaskId>* plan);

 private:
  size_t PlanRounds(size_t num_open, size_t num_tasks,
                    const std::vector<WorkerId>& workers, bool multi_round,
                    std::unordered_map<WorkerId, TaskId>* plan);

  TopWorkerSelector selector_;
  CandidateSets candidates_;
  std::vector<uint8_t> task_planned_;
  std::vector<uint8_t> worker_used_;
  std::vector<uint32_t> scheme_;
};

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_GREEDY_ASSIGN_H_
