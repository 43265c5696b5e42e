// Quickstart: walks the paper's running example (the twelve Table 1
// entity-resolution microtasks) through the full iCrowd pipeline piece by
// piece — similarity graph, personalized-PageRank accuracy estimation,
// qualification selection, and one round of optimal assignment.

#include <cstdio>
#include <cstdlib>

#include "icrowd_api.h"

using namespace icrowd;  // NOLINT: example brevity

// The walkthrough feeds known-good inputs; fail loudly if that ever stops
// holding instead of silently dropping the Status.
static void OrDie(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "unexpected error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

int main() {
  // ---- 1. The microtasks of Table 1 --------------------------------------
  Dataset dataset = Table1Microtasks();
  std::printf("== Table 1 microtasks ==\n");
  for (const Microtask& t : dataset.tasks()) {
    std::printf("  t%-2d [%s] %s\n", t.id + 1, t.domain.c_str(),
                t.text.c_str());
  }

  // ---- 2. Similarity graph (Jaccard, threshold 0.5, as in Figure 3) ------
  GraphBuildOptions graph_options;
  graph_options.measure = SimilarityMeasure::kJaccard;
  graph_options.threshold = 0.5;
  // Table 1 token sets keep model numbers; the paper's Figure 3 does not
  // strip stop words either (the task texts have none).
  auto graph = SimilarityGraph::Build(dataset, graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Similarity graph: %zu nodes, %zu edges ==\n",
              graph->num_nodes(), graph->num_edges());
  for (size_t u = 0; u < graph->num_nodes(); ++u) {
    for (const auto& edge : graph->Neighbors(u)) {
      if (edge.neighbor > static_cast<int32_t>(u)) {
        std::printf("  t%zu -- t%d  (s = %s)\n", u + 1, edge.neighbor + 1,
                    FormatDouble(edge.weight, 2).c_str());
      }
    }
  }
  int components = 0;
  graph->ConnectedComponents(&components);
  std::printf("  %d connected components (iPhone / iPod / iPad clusters)\n",
              components);

  // ---- 3. Qualification selection (Algorithm 4) --------------------------
  AccuracyEstimatorOptions est_options;
  auto estimator = AccuracyEstimator::Create(*graph, est_options);
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator failed: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }
  auto qual = SelectQualificationGreedy(estimator->engine(), 3);
  std::printf("\n== Greedy qualification selection (Q = 3) ==\n  tasks:");
  for (TaskId t : qual->tasks) std::printf(" t%d", t + 1);
  std::printf("  (influence: %zu of %zu tasks)\n", qual->influence,
              dataset.size());

  // ---- 4. Accuracy estimation for the §3 example worker ------------------
  // Worker w answered t1 correctly and t2, t3 incorrectly (Figure 4's w1).
  estimator->SetQualificationTasks(qual->tasks);
  CampaignState state(dataset.size(), /*assignment_size=*/3);
  WorkerId w = state.RegisterWorker();
  for (TaskId t : {0, 1, 2}) {
    state.MarkQualification(t);
    state.ForceComplete(t, *dataset.task(t).ground_truth);
    OrDie(state.MarkAssigned(t, w));
  }
  estimator->SetQualificationTasks({0, 1, 2});
  // Correct on t1; wrong on t2 and t3.
  auto flip = [](Label label) { return label == kYes ? kNo : kYes; };
  OrDie(state.RecordAnswer({0, w, *dataset.task(0).ground_truth, 0.0}));
  OrDie(state.RecordAnswer({1, w, flip(*dataset.task(1).ground_truth), 1.0}));
  OrDie(state.RecordAnswer({2, w, flip(*dataset.task(2).ground_truth), 2.0}));

  estimator->RegisterWorker(w, 1.0 / 3.0);
  estimator->Refresh(w, state, dataset);
  std::printf("\n== Estimated accuracies p^w (w aced t1, failed t2, t3) ==\n");
  for (const Microtask& t : dataset.tasks()) {
    std::printf("  p(t%-2d) = %s   [%s]\n", t.id + 1,
                FormatDouble(estimator->Accuracy(w, t.id), 3).c_str(),
                t.domain.c_str());
  }
  std::printf("  (iPhone tasks rank highest: w is believed good at iPhone)\n");

  // ---- 5. One optimal assignment round (Algorithm 3) ---------------------
  // Three more workers with contrasting observed performance.
  std::vector<double> warmup_accuracy = {1.0, 2.0 / 3.0, 1.0 / 3.0};
  std::vector<std::vector<std::pair<TaskId, bool>>> history = {
      {{1, true}, {2, true}},   // w2: iPod + iPad ace
      {{0, true}, {2, false}},  // w3: iPhone good, iPad poor
      {{1, false}},             // w4: iPod poor
  };
  std::vector<WorkerId> workers = {w};
  for (size_t i = 0; i < history.size(); ++i) {
    WorkerId wi = state.RegisterWorker();
    workers.push_back(wi);
    for (auto [t, correct] : history[i]) {
      OrDie(state.MarkAssigned(t, wi));
      Label truth = *dataset.task(t).ground_truth;
      OrDie(state.RecordAnswer({t, wi, correct ? truth : flip(truth), 3.0}));
    }
    estimator->RegisterWorker(wi, warmup_accuracy[i]);
    estimator->Refresh(wi, state, dataset);
  }
  auto candidates = ComputeTopWorkerSets(state.UncompletedTasks(), state,
                                         workers, estimator->AsAccuracyFn());
  auto scheme = GreedyAssign(candidates);
  std::printf("\n== Greedy assignment scheme (k = 3) ==\n");
  for (const TopWorkerSet& set : scheme) {
    std::printf("  t%-2d <- workers {", set.task + 1);
    for (size_t i = 0; i < set.workers.size(); ++i) {
      std::printf("%sw%d(%s)", i ? ", " : "", set.workers[i] + 1,
                  FormatDouble(set.accuracies[i], 2).c_str());
    }
    std::printf("}  avg %s\n", FormatDouble(set.AvgAccuracy(), 3).c_str());
  }
  std::printf("\nQuickstart finished.\n");
  return 0;
}
