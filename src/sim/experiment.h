#ifndef ICROWD_SIM_EXPERIMENT_H_
#define ICROWD_SIM_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/strategy_factory.h"
#include "host/host_config.h"
#include "model/dataset.h"
#include "qualification/qualification_selector.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/worker_profile.h"

namespace icrowd {

/// Everything one §6-style experiment run produces.
struct ExperimentResult {
  std::string strategy_name;
  /// Per-domain + overall accuracy (the Figure 7-9/12-14 measurements).
  AccuracyReport report;
  /// Final per-task predictions used for the report.
  std::vector<Label> predictions;
  /// The qualification selection used (tasks + influence).
  QualificationSelection qualification;
  /// Raw simulation output (answer log, timings, worker stats).
  SimulationResult sim;
};

/// Runs one full campaign of `config.strategy` on `dataset`: an ICrowd
/// campaign (graph, PPR, qualification selection, warm-up, assignment) is
/// created and the simulated crowd of `profiles` drives it to completion
/// through the platform callbacks; the strategy's aggregation then yields
/// the predictions that are scored. `config.clock` is replaced by the
/// simulator's event clock. `host` carries the execution-only knobs
/// (threads, pool); results are bit-identical at any HostConfig.
Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    ICrowdConfig config, const HostConfig& host = {});

}  // namespace icrowd

#endif  // ICROWD_SIM_EXPERIMENT_H_
