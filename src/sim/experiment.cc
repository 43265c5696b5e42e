#include "sim/experiment.h"

#include <memory>
#include <set>

#include "core/clock.h"
#include "core/icrowd.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    ICrowdConfig config, const HostConfig& host) {
  static const obs::Counter experiments_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.experiments", {true, "full experiment runs"});
  experiments_counter.Increment();
  ICROWD_TRACE_SCOPE("experiment.run");

  SimulationOptions sim_options;
  sim_options.seed = config.seed;
  config.clock = std::make_shared<ManualClock>();
  ICROWD_ASSIGN_OR_RETURN(std::unique_ptr<ICrowd> system,
                          ICrowd::Create(dataset, std::move(config), host));
  ExperimentResult result;
  result.strategy_name = system->strategy().name;
  result.qualification = system->qualification();

  CrowdSimulator simulator(&profiles, sim_options);
  ICROWD_ASSIGN_OR_RETURN(result.sim, simulator.Run(system.get()));
  {
    ICROWD_TRACE_SCOPE("experiment.aggregate");
    ICROWD_ASSIGN_OR_RETURN(result.predictions, system->Predictions());
  }
  ICROWD_TRACE_SCOPE("experiment.score");
  std::set<TaskId> qualification(result.qualification.tasks.begin(),
                                 result.qualification.tasks.end());
  result.report =
      EvaluateAccuracy(dataset, result.predictions, qualification);
  return result;
}

}  // namespace icrowd
