#include "datagen/scalability.h"

#include <tuple>
#include <vector>

#include "common/random.h"

namespace icrowd {

SimilarityGraph GenerateRandomBoundedGraph(size_t num_tasks,
                                           size_t max_neighbors,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<int32_t, int32_t, double>> edges;
  if (num_tasks > 1 && max_neighbors > 0) {
    // Each node draws ~max_neighbors/2 outgoing edges; the undirected view
    // gives every node roughly max_neighbors neighbors in expectation,
    // strictly bounded topology as in the paper's setup.
    size_t per_node = std::max<size_t>(1, max_neighbors / 2);
    edges.reserve(num_tasks * per_node);
    for (size_t u = 0; u < num_tasks; ++u) {
      for (size_t e = 0; e < per_node; ++e) {
        size_t v = rng.UniformInt(0, num_tasks - 1);
        if (v == u) continue;
        edges.emplace_back(static_cast<int32_t>(u), static_cast<int32_t>(v),
                           rng.Uniform(0.5, 1.0));
      }
    }
  }
  return SimilarityGraph::FromEdges(num_tasks, edges);
}

std::vector<WorkerId> SimulateGradedAnswers(CampaignState* state,
                                            size_t num_workers,
                                            size_t answers_per_worker,
                                            uint64_t seed) {
  Rng rng(seed);
  const size_t k = static_cast<size_t>(state->assignment_size());
  std::vector<WorkerId> workers;
  std::vector<double> accuracy;
  for (size_t i = 0; i < num_workers; ++i) {
    workers.push_back(state->RegisterWorker());
    accuracy.push_back(rng.Uniform(0.55, 0.8));
  }
  const size_t num_graded = (num_workers * answers_per_worker + k - 1) / k;
  for (size_t t : rng.SampleWithoutReplacement(state->num_tasks(),
                                               num_graded)) {
    TaskId task = static_cast<TaskId>(t);
    Label truth = rng.Bernoulli(0.5) ? kYes : kNo;
    for (size_t i : rng.SampleWithoutReplacement(num_workers, k)) {
      Label label = rng.Bernoulli(accuracy[i]) ? truth : 1 - truth;
      // Fresh task, distinct workers, k answers for k slots: cannot fail.
      (void)state->MarkAssigned(task, workers[i]);
      (void)state->RecordAnswer({task, workers[i], label, 0.0});
    }
  }
  return workers;
}

}  // namespace icrowd
