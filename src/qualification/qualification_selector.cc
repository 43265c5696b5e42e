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
  std::vector<bool> covered(engine.num_tasks(), false);
  std::vector<bool> chosen(engine.num_tasks(), false);
  // Accumulated seed mass per task. Once hard coverage saturates (every
  // marginal count-gain is zero, common on dense per-domain clusters),
  // picks tie-break by *soft* marginal influence — the propagation mass a
  // seed adds into under-covered regions, Σ_i m_t(i)/(1 + cover(i)) — so
  // extra gold tasks are strong propagators spread across clusters rather
  // than arbitrary peripheral tasks.
  std::vector<double> mass_cover(engine.num_tasks(), 0.0);
  for (size_t i = 0; i < quota; ++i) {
    TaskId best = -1;
    size_t best_gain = 0;
    double best_soft = -1.0;
    for (size_t t = 0; t < engine.num_tasks(); ++t) {
      if (chosen[t]) continue;
      size_t gain = MarginalInfluence(engine, static_cast<TaskId>(t),
                                      covered, epsilon);
      if (best != -1 && gain < best_gain) continue;
      double soft = 0.0;
      for (const auto& [i2, mass] : engine.SeedVector(static_cast<TaskId>(t))) {
        soft += mass / (1.0 + mass_cover[i2]);
      }
      if (best == -1 || gain > best_gain ||
          (gain == best_gain && soft > best_soft)) {
        best = static_cast<TaskId>(t);
        best_gain = gain;
        best_soft = soft;
      }
    }
    if (best == -1) break;
    chosen[best] = true;
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
