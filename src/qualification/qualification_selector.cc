#include "qualification/qualification_selector.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "qualification/influence.h"

namespace icrowd {

namespace {

void RecordSelection(const char* kind, const QualificationSelection& s) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter selections = registry.GetCounter(
      "icrowd.qualification.selections",
      {true, "qualification-set selections performed"});
  static const obs::Counter selected_tasks = registry.GetCounter(
      "icrowd.qualification.selected_tasks",
      {true, "gold tasks chosen across all selections"});
  static const obs::Gauge influence = registry.GetGauge(
      "icrowd.qualification.influence",
      {true, "influence I(T_q) of the most recent selection"});
  selections.Increment();
  selected_tasks.Increment(s.tasks.size());
  influence.Set(static_cast<double>(s.influence));
  obs::MetricsRegistry::Global().RecordEvent(
      std::string("qualification.") + kind,
      {{"tasks", static_cast<double>(s.tasks.size())},
       {"influence", static_cast<double>(s.influence)}});
}

Status CheckQuota(const PprEngine& engine, size_t quota) {
  if (quota == 0) {
    return Status::InvalidArgument("qualification quota must be >= 1");
  }
  if (quota > engine.num_tasks()) {
    return Status::InvalidArgument(
        "qualification quota exceeds number of tasks");
  }
  return Status::OK();
}

}  // namespace

Result<QualificationSelection> SelectQualificationGreedy(
    const PprEngine& engine, size_t quota, double epsilon) {
  ICROWD_RETURN_NOT_OK(CheckQuota(engine, quota));
  ICROWD_TRACE_SCOPE("qualification.select_greedy");
  QualificationSelection selection;
  const size_t n = engine.num_tasks();
  std::vector<bool> covered(n, false);
  // Accumulated seed mass per task. Once hard coverage saturates (every
  // marginal count-gain is zero, common on dense per-domain clusters),
  // picks tie-break by *soft* marginal influence — the propagation mass a
  // seed adds into under-covered regions, Σ_i m_t(i)/(1 + cover(i)) — so
  // extra gold tasks are strong propagators spread across clusters rather
  // than arbitrary peripheral tasks.
  std::vector<double> mass_cover(n, 0.0);
  auto soft_gain = [&](TaskId t) {
    double soft = 0.0;
    for (const auto& [i2, mass] : engine.SeedVector(t)) {
      soft += mass / (1.0 + mass_cover[i2]);
    }
    return soft;
  };
  // Each pick is the candidate ranking first by (gain desc, soft desc,
  // task id asc). Lazy greedy (CELF, Leskovec et al., KDD 2007) finds it
  // without rescoring every candidate: `covered` and `mass_cover` only
  // grow, and with the summation order fixed IEEE rounding is monotone, so
  // a key scored in an earlier round bounds the candidate's current key
  // from above. A candidate rescored this round that still tops the heap
  // therefore ranks first among all of them.
  struct Candidate {
    size_t gain;
    double soft;
    TaskId task;
    size_t round;  // the round `gain` and `soft` were scored in
  };
  auto ranks_below = [](const Candidate& a, const Candidate& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.soft != b.soft) return a.soft < b.soft;
    return a.task > b.task;
  };
  std::vector<Candidate> heap;
  heap.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const TaskId task = static_cast<TaskId>(t);
    heap.push_back({MarginalInfluence(engine, task, covered, epsilon),
                    soft_gain(task), task, 0});
  }
  std::make_heap(heap.begin(), heap.end(), ranks_below);
  for (size_t round = 0; round < quota; ++round) {
    std::pop_heap(heap.begin(), heap.end(), ranks_below);
    while (heap.back().round != round) {
      Candidate& stale = heap.back();
      stale.gain = MarginalInfluence(engine, stale.task, covered, epsilon);
      stale.soft = soft_gain(stale.task);
      stale.round = round;
      std::push_heap(heap.begin(), heap.end(), ranks_below);
      std::pop_heap(heap.begin(), heap.end(), ranks_below);
    }
    const TaskId best = heap.back().task;
    heap.pop_back();
    selection.tasks.push_back(best);
    for (const auto& [t, mass] : engine.SeedVector(best)) {
      if (mass > epsilon) covered[t] = true;
      mass_cover[t] += mass;
    }
  }
  selection.influence = ComputeInfluence(engine, selection.tasks, epsilon);
  RecordSelection("greedy", selection);
  return selection;
}

Result<QualificationSelection> SelectQualificationRandom(
    const PprEngine& engine, size_t quota, Rng* rng, double epsilon) {
  ICROWD_RETURN_NOT_OK(CheckQuota(engine, quota));
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  QualificationSelection selection;
  for (size_t idx : rng->SampleWithoutReplacement(engine.num_tasks(), quota)) {
    selection.tasks.push_back(static_cast<TaskId>(idx));
  }
  std::sort(selection.tasks.begin(), selection.tasks.end());
  selection.influence = ComputeInfluence(engine, selection.tasks, epsilon);
  RecordSelection("random", selection);
  return selection;
}

}  // namespace icrowd
