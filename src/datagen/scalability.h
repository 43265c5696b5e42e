#ifndef ICROWD_DATAGEN_SCALABILITY_H_
#define ICROWD_DATAGEN_SCALABILITY_H_

#include <cstdint>
#include <vector>

#include "graph/similarity_graph.h"
#include "model/campaign_state.h"

namespace icrowd {

/// §6.5's simulation workload: a similarity graph over `num_tasks`
/// microtasks where each microtask gets up to `max_neighbors` randomly
/// chosen neighbors with uniform similarity weights in [0.5, 1). Used by the
/// Figure 10 scalability bench, which inserts tasks in large steps.
SimilarityGraph GenerateRandomBoundedGraph(size_t num_tasks,
                                           size_t max_neighbors,
                                           uint64_t seed = 31);

/// The answer history behind Figure 10's workers: registers `num_workers`
/// workers in `state`, each with a hidden accuracy in [0.55, 0.8), and has
/// k random distinct workers answer each of a random sample of tasks until
/// every worker holds about `answers_per_worker` answers. Each sampled task
/// fills its k slots and reaches consensus, so all these answers are graded
/// (Eq. 5) by the estimator's next refresh. `state` needs at least
/// num_workers * answers_per_worker / k tasks. Returns the worker ids.
std::vector<WorkerId> SimulateGradedAnswers(CampaignState* state,
                                            size_t num_workers,
                                            size_t answers_per_worker,
                                            uint64_t seed);

}  // namespace icrowd

#endif  // ICROWD_DATAGEN_SCALABILITY_H_
