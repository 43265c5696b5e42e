#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

struct WorkerRuntime {
  size_t profile_index = 0;
  bool left = false;
  int64_t remaining = 0;
};

struct Event {
  double time;
  uint64_t seq;  // FIFO tie-break for equal times
  WorkerId worker;
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

/// Incremental campaign scoreboard: folds each completed task's consensus
/// into running accuracy and (binary) F1 so the simulator can emit one
/// trajectory event per completion without rescoring the whole dataset.
/// The driver loop is single-threaded, so emission order — and therefore
/// the exported event stream — is deterministic at any pool size.
struct Scoreboard {
  size_t completed = 0;
  size_t correct = 0;
  size_t true_pos = 0;
  size_t false_pos = 0;
  size_t false_neg = 0;

  void Fold(Label consensus, Label truth) {
    ++completed;
    if (consensus == truth) ++correct;
    if (consensus == kYes && truth == kYes) ++true_pos;
    if (consensus == kYes && truth != kYes) ++false_pos;
    if (consensus != kYes && truth == kYes) ++false_neg;
  }

  double Accuracy() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(correct) / static_cast<double>(completed);
  }

  double F1() const {
    double denom = static_cast<double>(2 * true_pos + false_pos + false_neg);
    if (denom == 0.0) return 0.0;
    return 2.0 * static_cast<double>(true_pos) / denom;
  }
};

}  // namespace

Result<SimulationResult> CrowdSimulator::Run(ICrowd* system) {
  if (system == nullptr) {
    return Status::InvalidArgument("system must not be null");
  }
  if (profiles_ == nullptr || profiles_->empty()) {
    return Status::InvalidArgument("worker profile pool is empty");
  }
  auto* clock = dynamic_cast<ManualClock*>(system->config().clock.get());
  if (clock == nullptr) {
    return Status::InvalidArgument(
        "the simulated crowd sets campaign time: config.clock must be a "
        "ManualClock");
  }
  if (system->state().num_workers() != 0) {
    return Status::FailedPrecondition("simulation needs a fresh campaign");
  }
  const Dataset& dataset = system->dataset();
  for (const Microtask& t : dataset.tasks()) {
    if (!t.ground_truth.has_value()) {
      return Status::FailedPrecondition(
          "simulation requires ground truth on every task (task " +
          std::to_string(t.id) + " lacks it)");
    }
  }

  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter requests_counter = registry.GetCounter(
      "icrowd.sim.requests", {true, "task requests served by the assigner"});
  static const obs::Counter answers_counter = registry.GetCounter(
      "icrowd.sim.answers", {true, "work answers recorded"});
  static const obs::Counter qualification_answers_counter =
      registry.GetCounter("icrowd.sim.qualification_answers",
                          {true, "warm-up answers recorded"});
  static const obs::Counter spawned_counter = registry.GetCounter(
      "icrowd.sim.workers_spawned", {true, "simulated workers spawned"});
  static const obs::Counter rejected_counter = registry.GetCounter(
      "icrowd.sim.workers_rejected",
      {true, "workers eliminated by warm-up grading"});
  static const obs::Counter respawn_counter = registry.GetCounter(
      "icrowd.sim.pool_respawns",
      {true, "times the worker pool was recycled"});
  static const obs::Histogram request_seconds = registry.GetHistogram(
      "icrowd.sim.request_seconds", obs::ExponentialBuckets(1e-6, 4, 10),
      {false, "wall-clock per ICrowd::RequestTask call"});
  ICROWD_TRACE_SCOPE("sim.run");

  SimulationResult result;
  result.qualification_tasks = system->qualification_tasks();
  Rng rng(options_.seed);
  Scoreboard scoreboard;
  std::vector<WorkerRuntime> runtimes;  // indexed by WorkerId
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  uint64_t seq = 0;
  double now = 0.0;

  // The whole pool arrives at spawn time, in profile order, so worker ids
  // index `runtimes`; each worker's first request waits for its arrival.
  auto spawn_pool = [&]() -> Status {
    for (size_t p = 0; p < profiles_->size(); ++p) {
      ICROWD_ASSIGN_OR_RETURN(WorkerId id, system->OnWorkerArrived());
      if (static_cast<size_t>(id) != runtimes.size()) {
        return Status::Internal("arrival registered an unexpected worker id");
      }
      WorkerRuntime rt;
      rt.profile_index = p;
      rt.remaining = std::max<int64_t>(1, (*profiles_)[p].willingness);
      result.worker_profile.push_back(p);
      ++result.workers_spawned;
      spawned_counter.Increment();
      queue.push({now + (*profiles_)[p].arrival_time, seq++, id});
      runtimes.push_back(rt);
    }
    return Status::OK();
  };
  ICROWD_RETURN_NOT_OK(spawn_pool());
  int respawns = 0;

  auto generate_answer = [&](const WorkerProfile& profile,
                             TaskId task) -> Label {
    const Microtask& t = dataset.task(task);
    double accuracy = profile.TrueAccuracy(t);
    Label truth = *t.ground_truth;
    if (rng.Bernoulli(accuracy)) return truth;
    if (t.num_choices <= 2) return truth == kYes ? kNo : kYes;
    // Multi-choice: a wrong answer is uniform over the other choices.
    Label wrong = static_cast<Label>(rng.UniformInt(0, t.num_choices - 2));
    return wrong >= truth ? wrong + 1 : wrong;
  };

  size_t events = 0;
  while (!system->Finished()) {
    if (queue.empty()) {
      if (respawns >= options_.max_pool_respawns) break;
      ++respawns;
      respawn_counter.Increment();
      ICROWD_RETURN_NOT_OK(spawn_pool());
      continue;
    }
    if (++events > options_.max_events) {
      ICROWD_LOG(Warning) << "simulation hit max_events with "
                          << system->state().UncompletedTasks().size()
                          << " tasks uncompleted";
      break;
    }
    Event event = queue.top();
    queue.pop();
    now = std::max(now, event.time);
    const WorkerId worker = event.worker;
    WorkerRuntime& rt = runtimes[static_cast<size_t>(worker)];
    if (rt.left) continue;
    const WorkerProfile& profile = (*profiles_)[rt.profile_index];

    clock->Set(now);
    Stopwatch timer;
    auto served = system->RequestTask(worker);
    request_seconds.Observe(timer.ElapsedSeconds());
    if (!served.ok()) return served.status();
    std::optional<TaskId> task = *served;
    ICrowd::WorkerStatus status = system->worker_status(worker);
    if (status == ICrowd::WorkerStatus::kRejected) {
      rt.left = true;
      ++result.workers_rejected;
      rejected_counter.Increment();
      // A rejected worker's answers are all warm-up answers.
      const std::vector<AnswerRecord>& graded =
          system->state().WorkerAnswers(worker);
      int correct = 0;
      for (const AnswerRecord& a : graded) {
        if (a.label == *dataset.task(a.task).ground_truth) ++correct;
      }
      registry.RecordEvent(
          "sim.worker_rejected",
          {{"worker", static_cast<double>(worker)},
           {"accuracy", static_cast<double>(correct) /
                            static_cast<double>(graded.size())}});
      continue;
    }
    const bool qualification = status == ICrowd::WorkerStatus::kWarmup;
    if (!qualification) {
      ++result.num_requests;
      requests_counter.Increment();
    }
    if (!task.has_value()) {
      rt.left = true;  // nothing for this worker: it returns the HIT
      ICROWD_RETURN_NOT_OK(system->OnWorkerLeft(worker));
      continue;
    }
    ICROWD_RETURN_NOT_OK(
        system->SubmitAnswer(worker, *task, generate_answer(profile, *task)));
    result.total_cost += options_.price_per_assignment;
    if (qualification) {
      result.qualification_cost += options_.price_per_assignment;
      qualification_answers_counter.Increment();
      queue.push({now + profile.mean_dwell, seq++, worker});
      continue;
    }
    answers_counter.Increment();
    if (system->state().IsCompleted(*task)) {
      // One trajectory tick per completed task — the machine-readable
      // time series behind Figures 8-10 (accuracy/F1 vs budget spent).
      auto consensus = system->state().Consensus(*task);
      scoreboard.Fold(consensus.value_or(kNoLabel),
                      *dataset.task(*task).ground_truth);
      registry.RecordEvent(
          "sim.task_completed",
          {{"task", static_cast<double>(*task)},
           {"completed", static_cast<double>(scoreboard.completed)},
           {"accuracy", scoreboard.Accuracy()},
           {"f1", scoreboard.F1()},
           {"budget", result.total_cost},
           {"workers_rejected",
            static_cast<double>(result.workers_rejected)}});
    }
    if (--rt.remaining <= 0) {
      rt.left = true;
      ICROWD_RETURN_NOT_OK(system->OnWorkerLeft(worker));
    } else {
      queue.push({now + profile.mean_dwell, seq++, worker});
    }
  }

  result.completed_all = system->Finished();
  result.assigner = system->strategy().assigner->Stats();
  result.consensus = system->Results();
  result.answers = system->state().AllAnswers();
  for (const AnswerRecord& a : result.answers) {
    if (!system->state().IsQualification(a.task)) {
      result.work_answers.push_back(a);
    }
  }
  return result;
}

}  // namespace icrowd
