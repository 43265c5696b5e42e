#ifndef ICROWD_ESTIMATION_OBSERVED_ACCURACY_H_
#define ICROWD_ESTIMATION_OBSERVED_ACCURACY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/ppr.h"
#include "model/campaign_state.h"
#include "model/dataset.h"

namespace icrowd {

/// An accuracy estimate p_t^w as a function, for components that take
/// arbitrary estimates (aggregation, the materializing top-set helpers).
using AccuracyFn = std::function<double(WorkerId, TaskId)>;

/// Accuracy estimates as dense rows: entry w points at worker w's p_t^w,
/// indexed by task id. This is the form the scheme rebuild scores from and
/// Eq. (5) reads co-workers' estimates in; a reader indexes only workers
/// below size() and tasks the rows cover.
using AccuracyRows = std::vector<const double*>;

/// Computes the observed-accuracy vector q^w of §3.2 over the globally
/// completed tasks the worker has answered:
///  * qualification tasks (`is_qualification[t]` set, ground truth known):
///    q = 1 if the answer matches the truth, else 0;
///  * consensus tasks: Eq. (5) — the posterior probability that w's answer
///    is correct, from the co-workers' estimates in `accuracy`. Computed
///    in log space.
/// `is_qualification` is indexed by task id; tasks past its end are not
/// qualification tasks. Entries are sorted by task id.
SparseEntries ComputeObservedAccuracies(
    WorkerId worker, const CampaignState& state, const Dataset& dataset,
    const std::vector<uint8_t>& is_qualification,
    const AccuracyRows& accuracy);

/// Eq. (5) for a single completed task. `answers` must contain worker
/// `worker`'s answer; `consensus` is the task's consensus label.
double ObservedAccuracyOnConsensusTask(WorkerId worker,
                                       const std::vector<AnswerRecord>& answers,
                                       Label consensus,
                                       const AccuracyRows& accuracy);

}  // namespace icrowd

#endif  // ICROWD_ESTIMATION_OBSERVED_ACCURACY_H_
