#include "core/icrowd.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/random.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

/// Snapshot header magic ("ICRS" in little-endian byte order).
constexpr uint32_t kSnapshotMagic = 0x53524349;

Status PoisonedStatus() {
  return Status::FailedPrecondition(
      "campaign is poisoned after a journal/apply failure; recover with "
      "ICrowd::Restore() from the persisted journal");
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Fnv1aStr(uint64_t hash, const std::string& s) {
  hash = Fnv1a(hash, s.size());
  for (char c : s) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Fnv1aF64(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fnv1a(hash, bits);
}

uint64_t HashPprOptions(uint64_t h, const PprOptions& ppr) {
  h = Fnv1aF64(h, ppr.alpha);
  h = Fnv1a(h, static_cast<uint64_t>(ppr.max_iterations));
  h = Fnv1aF64(h, ppr.tolerance);
  return Fnv1aF64(h, ppr.prune_epsilon);
}

uint64_t HashGraphOptions(uint64_t h, const GraphBuildOptions& graph) {
  h = Fnv1a(h, static_cast<uint64_t>(graph.measure));
  h = Fnv1aF64(h, graph.threshold);
  h = Fnv1a(h, graph.max_neighbors);
  h = Fnv1a(h, static_cast<uint64_t>(graph.lda.num_topics));
  h = Fnv1aF64(h, graph.lda.alpha);
  h = Fnv1aF64(h, graph.lda.beta);
  h = Fnv1a(h, static_cast<uint64_t>(graph.lda.num_iterations));
  h = Fnv1a(h, static_cast<uint64_t>(graph.lda.burn_in));
  h = Fnv1a(h, static_cast<uint64_t>(graph.lda.sample_lag));
  return Fnv1a(h, graph.lda.seed);
}

/// Hash binding journals/snapshots to the campaign they came from: the
/// dataset contents plus every decision-relevant configuration scalar,
/// including the graph build (measure, threshold, neighbor cap, LDA) and
/// the PPR solver options that shape the estimates. Task feature vectors
/// enter only under the Euclidean measure, the one graph they shape.
/// Execution state (all of HostConfig, plus the clock and journal_sink
/// injection points) is excluded — recovery at a different thread count or
/// shard layout is bit-identical by contract.
uint64_t CampaignFingerprint(const Dataset& dataset,
                             const ICrowdConfig& config) {
  const bool euclidean = config.graph.measure == SimilarityMeasure::kEuclidean;
  uint64_t h = 14695981039346656037ull;
  h = Fnv1aStr(h, dataset.name());
  h = Fnv1a(h, dataset.size());
  for (const Microtask& task : dataset.tasks()) {
    if (euclidean) {
      h = Fnv1a(h, task.features.size());
      for (double f : task.features) h = Fnv1aF64(h, f);
    }
    h = Fnv1aStr(h, task.text);
    h = Fnv1aStr(h, task.domain);
    h = Fnv1a(h, static_cast<uint64_t>(task.num_choices));
    h = Fnv1a(h, task.ground_truth.has_value() ? 1u : 0u);
    h = Fnv1a(h, static_cast<uint64_t>(
                     static_cast<int64_t>(task.ground_truth.value_or(
                         kNoLabel))));
  }
  h = Fnv1a(h, static_cast<uint64_t>(config.strategy));
  h = Fnv1a(h, static_cast<uint64_t>(config.assignment_size));
  h = Fnv1a(h, config.num_qualification);
  h = Fnv1a(h, config.qualification_greedy ? 1u : 0u);
  h = Fnv1aF64(h, config.influence_epsilon);
  h = Fnv1aF64(h, config.estimator.default_accuracy);
  h = Fnv1aF64(h, config.estimator.prior_strength);
  h = Fnv1aF64(h, config.estimator.min_mass);
  h = Fnv1a(h, config.estimator.confidence_weighting ? 1u : 0u);
  h = HashPprOptions(h, config.estimator.ppr);
  h = HashGraphOptions(h, config.graph);
  h = Fnv1a(h, static_cast<uint64_t>(config.warmup.tasks_per_worker));
  h = Fnv1aF64(h, config.warmup.rejection_threshold);
  h = Fnv1a(h, config.warmup.eliminate_bad_workers ? 1u : 0u);
  h = Fnv1aF64(h, config.activity_window_seconds);
  h = Fnv1a(h, config.seed);
  return h;
}

/// The replay outcome check: a journaled outcome differs from the one the
/// live code produced for the same record.
template <typename T>
Status ReplayDiverged(const std::string& what, T journaled, T replayed) {
  return Status::Internal("replay diverged on " + what + ": journal recorded " +
                          std::to_string(journaled) + ", replay produced " +
                          std::to_string(replayed));
}

}  // namespace

ICrowd::ICrowd(std::unique_ptr<const Dataset> dataset, ICrowdConfig config,
               HostConfig host, QualificationSelection qualification,
               WarmupComponent warmup, Strategy strategy)
    : dataset_(std::move(dataset)),
      config_(std::move(config)),
      host_config_(std::move(host)),
      qualification_(std::move(qualification)),
      warmup_(std::move(warmup)),
      strategy_(std::move(strategy)),
      state_(dataset_->size(), config_.assignment_size),
      activity_(config_.activity_window_seconds) {
  for (TaskId t : qualification_.tasks) {
    state_.MarkQualification(t);
    state_.ForceComplete(t, *dataset_->task(t).ground_truth);
  }
}

Result<PprEngine> ICrowd::BuildEngine(const Dataset& dataset,
                                      const ICrowdConfig& config) {
  auto graph = SimilarityGraph::Build(dataset, config.graph);
  if (!graph.ok()) return graph.status();
  return PprEngine::Precompute(*graph, config.estimator.ppr);
}

uint64_t ICrowd::CorpusFingerprint(const Dataset& dataset,
                                   const ICrowdConfig& config) {
  const bool euclidean = config.graph.measure == SimilarityMeasure::kEuclidean;
  uint64_t h = 14695981039346656037ull;
  h = Fnv1a(h, kCorpusIndexFormatVersion);
  h = Fnv1a(h, dataset.size());
  for (const Microtask& task : dataset.tasks()) {
    if (euclidean) {
      h = Fnv1a(h, task.features.size());
      for (double f : task.features) h = Fnv1aF64(h, f);
    }
    h = Fnv1aStr(h, task.text);
  }
  h = HashPprOptions(h, config.estimator.ppr);
  return HashGraphOptions(h, config.graph);
}

Result<std::unique_ptr<ICrowd>> ICrowd::Build(
    Dataset dataset, ICrowdConfig config, HostConfig host,
    std::shared_ptr<const PprEngine> engine) {
  ICROWD_RETURN_NOT_OK(dataset.Validate());
  if (config.assignment_size < 1 || config.assignment_size % 2 == 0) {
    return Status::InvalidArgument("assignment_size k must be odd and >= 1");
  }
  auto owned_dataset = std::make_unique<const Dataset>(std::move(dataset));
  const Dataset& data = *owned_dataset;
  // The one PPR precompute of the campaign (unless the caller did it): it
  // feeds both the qualification selection and, through the estimator,
  // the online estimates.
  if (engine == nullptr) {
    ICROWD_ASSIGN_OR_RETURN(PprEngine built, BuildEngine(data, config));
    engine = std::make_shared<const PprEngine>(std::move(built));
  } else if (engine->num_tasks() != data.size()) {
    return Status::InvalidArgument("PPR engine covers " +
                                   std::to_string(engine->num_tasks()) +
                                   " tasks, the dataset has " +
                                   std::to_string(data.size()));
  }
  ICROWD_ASSIGN_OR_RETURN(
      AccuracyEstimator estimator,
      AccuracyEstimator::FromEngine(std::move(engine), config.estimator));

  // Qualification selection (Algorithm 4 / RandomQF).
  size_t quota = std::min(config.num_qualification, data.size());
  Result<QualificationSelection> selection = Status::Internal("unset");
  if (config.qualification_greedy) {
    selection = SelectQualificationGreedy(estimator.engine(), quota,
                                          config.influence_epsilon);
  } else {
    Rng rng(config.seed);
    selection = SelectQualificationRandom(estimator.engine(), quota, &rng,
                                          config.influence_epsilon);
  }
  if (!selection.ok()) return selection.status();
  QualificationSelection qualification = selection.MoveValueOrDie();
  estimator.SetQualificationTasks(qualification.tasks);

  ICROWD_ASSIGN_OR_RETURN(
      Strategy strategy,
      MakeStrategy(data,
                   std::make_unique<AccuracyEstimator>(std::move(estimator)),
                   config, host));
  WarmupOptions warmup_options = config.warmup;
  warmup_options.eliminate_bad_workers =
      config.warmup.eliminate_bad_workers && strategy.eliminate_bad_workers;
  ICROWD_ASSIGN_OR_RETURN(
      WarmupComponent warmup,
      WarmupComponent::Create(&data, qualification.tasks, warmup_options));

  uint64_t fingerprint = CampaignFingerprint(data, config);
  auto icrowd = std::unique_ptr<ICrowd>(new ICrowd(
      std::move(owned_dataset), std::move(config), std::move(host),
      std::move(qualification), std::move(warmup), std::move(strategy)));
  icrowd->fingerprint_ = fingerprint;
  return icrowd;
}

Result<std::unique_ptr<ICrowd>> ICrowd::Create(
    Dataset dataset, ICrowdConfig config, HostConfig host,
    std::shared_ptr<const PprEngine> engine) {
  auto built = Build(std::move(dataset), std::move(config), std::move(host),
                     std::move(engine));
  if (!built.ok()) return built.status();
  std::unique_ptr<ICrowd> icrowd = built.MoveValueOrDie();
  if (icrowd->config_.journal_sink != nullptr) {
    icrowd->writer_ =
        std::make_unique<JournalWriter>(icrowd->config_.journal_sink);
  }
  JournalEvent begin;
  begin.type = JournalEventType::kCampaignBegin;
  begin.format_version = kJournalFormatVersion;
  begin.fingerprint = icrowd->fingerprint_;
  ICROWD_RETURN_NOT_OK(icrowd->AppendEvent(begin));
  if (icrowd->writer_ != nullptr) {
    ICROWD_RETURN_NOT_OK(icrowd->writer_->Flush());
  }
  return icrowd;
}

Result<std::unique_ptr<ICrowd>> ICrowd::Restore(
    Dataset dataset, ICrowdConfig config,
    const std::vector<uint8_t>& snapshot,
    const std::vector<uint8_t>& journal_bytes, HostConfig host,
    std::shared_ptr<const PprEngine> engine) {
  ICROWD_ASSIGN_OR_RETURN(JournalParse journal, ReadJournal(journal_bytes));
  return RestoreParsed(std::move(dataset), std::move(config), snapshot,
                       journal, std::move(host), std::move(engine));
}

Result<std::unique_ptr<ICrowd>> ICrowd::RestoreParsed(
    Dataset dataset, ICrowdConfig config,
    const std::vector<uint8_t>& snapshot, const JournalParse& journal,
    HostConfig host, std::shared_ptr<const PprEngine> engine) {
  ICROWD_TRACE_SCOPE("journal.restore");
  if (snapshot.empty() && journal.events.empty()) {
    return Status::InvalidArgument(
        "nothing to restore: no snapshot and no intact journal record");
  }
  auto built = Build(std::move(dataset), std::move(config), std::move(host),
                     std::move(engine));
  if (!built.ok()) return built.status();
  std::unique_ptr<ICrowd> icrowd = built.MoveValueOrDie();
  if (!journal.events.empty()) {
    const JournalEvent& begin = journal.events.front();
    if (begin.type != JournalEventType::kCampaignBegin) {
      return Status::InvalidArgument(
          "journal does not start with a campaign-begin record");
    }
    if (begin.format_version != kJournalFormatVersion) {
      return Status::FailedPrecondition(
          "journal format version " + std::to_string(begin.format_version) +
          " is not supported");
    }
    if (begin.fingerprint != icrowd->fingerprint_) {
      return Status::FailedPrecondition(
          "journal belongs to a different campaign (fingerprint mismatch)");
    }
  }
  if (!snapshot.empty()) {
    BinaryReader reader(snapshot);
    ICROWD_RETURN_NOT_OK(icrowd->ApplySnapshot(&reader));
  }
  ICROWD_RETURN_NOT_OK(icrowd->ReplayTail(journal.events));
  if (icrowd->config_.journal_sink != nullptr) {
    icrowd->writer_ =
        std::make_unique<JournalWriter>(icrowd->config_.journal_sink);
  }
  return icrowd;
}

Status ICrowd::AppendEvent(const JournalEvent& event) {
  if (replaying_) return Status::OK();
  ++events_applied_;
  if (writer_ == nullptr) return Status::OK();
  return PoisonOnError(writer_->Append(event));
}

Status ICrowd::PoisonOnError(Status status) {
  if (!status.ok()) failed_ = true;
  return status;
}

double ICrowd::NextTime() const {
  if (config_.clock != nullptr) return config_.clock->Now();
  return now_ + 1.0;
}

Result<WorkerId> ICrowd::OnWorkerArrived() {
  static const obs::Counter arrivals =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.arrivals", {true, "workers registered (live + replay)"});
  if (failed_) return PoisonedStatus();
  JournalEvent event;
  event.type = JournalEventType::kWorkerArrived;
  event.worker = static_cast<WorkerId>(state_.num_workers());
  ICROWD_RETURN_NOT_OK(AppendEvent(event));
  arrivals.Increment();
  status_.push_back(WorkerStatus::kWarmup);
  return state_.RegisterWorker();
}

std::optional<TaskId> ICrowd::HeldTask(WorkerId worker) const {
  auto it = holding_.find(worker);
  if (it == holding_.end()) return std::nullopt;
  return it->second;
}

std::vector<WorkerId> ICrowd::ActiveWorkers() const {
  // Active = accepted by warm-up, not left, and within the §4.1 request
  // window ending at the last observed campaign time. Evaluating at now_
  // (not a live clock peek) keeps the decision a pure function of the
  // journaled event stream.
  std::vector<WorkerId> active;
  for (size_t w = 0; w < status_.size(); ++w) {
    WorkerId id = static_cast<WorkerId>(w);
    if (status_[w] == WorkerStatus::kActive && activity_.IsActive(id, now_)) {
      active.push_back(id);
    }
  }
  return active;
}

Result<std::optional<TaskId>> ICrowd::DecideTask(WorkerId worker) {
  static const obs::Counter requests =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.requests",
          {true, "task-request decisions (live + replay)"});
  requests.Increment();
  switch (status_[worker]) {
    case WorkerStatus::kRejected:
    case WorkerStatus::kLeft:
      return std::optional<TaskId>();
    case WorkerStatus::kUnknown:
      return Status::NotFound("worker never arrived");
    case WorkerStatus::kWarmup: {
      std::optional<TaskId> qual = warmup_.NextTask(worker);
      if (qual.has_value()) return qual;
      auto verdict = warmup_.Evaluate(worker);
      if (!verdict.ok()) return verdict.status();
      if (!verdict->accepted) {
        status_[worker] = WorkerStatus::kRejected;
        return std::optional<TaskId>();
      }
      status_[worker] = WorkerStatus::kActive;
      strategy_.assigner->OnWorkerRegistered(
          worker, verdict->average_accuracy, state_);
      [[fallthrough]];
    }
    case WorkerStatus::kActive:
      return strategy_.assigner->RequestTask(worker, state_, ActiveWorkers());
  }
  return Status::Internal("unreachable");
}

Result<std::optional<TaskId>> ICrowd::RequestTask(WorkerId worker) {
  return ServeRequest(worker, NextTime());
}

Result<std::optional<TaskId>> ICrowd::ServeRequest(WorkerId worker,
                                                   double time) {
  if (failed_) return PoisonedStatus();
  if (worker < 0 || static_cast<size_t>(worker) >= status_.size()) {
    return Status::NotFound("unknown worker " + std::to_string(worker));
  }
  if (holding_.count(worker)) {
    return Status::FailedPrecondition(
        "worker " + std::to_string(worker) +
        " must submit its held task before requesting another");
  }
  // Write-ahead: the request's activity tick reaches the journal before any
  // state moves. A tick with no following request record (crash window) is
  // dropped on replay — the request never happened.
  JournalEvent tick;
  tick.type = JournalEventType::kClockTick;
  tick.time = time;
  ICROWD_RETURN_NOT_OK(AppendEvent(tick));
  now_ = time;
  activity_.RecordRequest(worker, now_);
  auto decided = DecideTask(worker);
  if (!decided.ok()) return PoisonOnError(decided.status());
  JournalEvent request;
  request.type = JournalEventType::kTaskRequested;
  request.worker = worker;
  request.task = decided->value_or(kNoTaskServed);
  ICROWD_RETURN_NOT_OK(AppendEvent(request));
  if (decided->has_value()) {
    ICROWD_RETURN_NOT_OK(
        PoisonOnError(state_.MarkAssigned(request.task, worker)));
    holding_[worker] = request.task;
  }
  return *decided;
}

Status ICrowd::SubmitAnswer(WorkerId worker, TaskId task, Label answer) {
  return SubmitAnswerImpl(worker, task, answer, /*flush_journal=*/true);
}

Status ICrowd::SubmitAnswerImpl(WorkerId worker, TaskId task, Label answer,
                                bool flush_journal) {
  static const obs::Counter answers =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.answers", {true, "answers accepted (live + replay)"});
  if (failed_) return PoisonedStatus();
  auto it = holding_.find(worker);
  if (it == holding_.end() || it->second != task) {
    return Status::FailedPrecondition(
        "worker " + std::to_string(worker) + " does not hold task " +
        std::to_string(task));
  }
  JournalEvent event;
  event.type = JournalEventType::kAnswerSubmitted;
  event.worker = worker;
  event.task = task;
  event.answer = answer;
  event.time = now_;
  ICROWD_RETURN_NOT_OK(AppendEvent(event));
  // Durability/ack point: the answer is on stable storage before the
  // pipeline consumes it. The batched path defers this to one group commit
  // per batch (ApplyEventBatch), moving the ack point to the batch end.
  if (flush_journal && writer_ != nullptr) {
    ICROWD_RETURN_NOT_OK(PoisonOnError(writer_->Flush()));
  }
  answers.Increment();
  holding_.erase(worker);
  AnswerRecord record{task, worker, answer, now_};
  ICROWD_RETURN_NOT_OK(PoisonOnError(state_.RecordAnswer(record)));
  if (status_[worker] == WorkerStatus::kWarmup) {
    return PoisonOnError(warmup_.RecordAnswer(worker, task, answer));
  }
  strategy_.assigner->OnAnswer(record, state_);
  return Status::OK();
}

Result<std::vector<IngestOutcome>> ICrowd::ApplyEventBatch(
    const std::vector<IngestEvent>& events) {
  ICROWD_TRACE_SCOPE("core.apply_batch");
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kMark,
                                       "core.apply_batch",
                                       static_cast<int64_t>(events.size()));
  if (failed_) return PoisonedStatus();
  std::vector<IngestOutcome> outcomes;
  outcomes.reserve(events.size());
  for (const IngestEvent& event : events) {
    IngestOutcome outcome;
    outcome.kind = event.kind;
    outcome.worker = event.worker;
    switch (event.kind) {
      case IngestEventKind::kWorkerArrived: {
        auto arrived = OnWorkerArrived();
        if (arrived.ok()) {
          outcome.worker = *arrived;
        } else {
          outcome.status = arrived.status();
        }
        break;
      }
      case IngestEventKind::kWorkerRequested: {
        auto served = RequestTask(event.worker);
        if (served.ok()) {
          outcome.task = served->has_value() ? served->value() : kNoTaskServed;
        } else {
          outcome.status = served.status();
        }
        break;
      }
      case IngestEventKind::kAnswerSubmitted:
        outcome.status = SubmitAnswerImpl(event.worker, event.task,
                                          event.answer,
                                          /*flush_journal=*/false);
        break;
      case IngestEventKind::kWorkerLeft:
        outcome.status = OnWorkerLeft(event.worker);
        break;
    }
    // Recoverable per-event errors (the same statuses the per-event calls
    // hand their caller) ride along in the outcome; a poisoning failure
    // means journal and state may disagree — abort the batch.
    if (failed_) return outcome.status;
    outcomes.push_back(std::move(outcome));
  }
  // Group commit: one durability point for the whole batch. Journal *bytes*
  // are unchanged versus per-event execution — only the flush cadence (a
  // non-deterministic metric) differs.
  if (!events.empty() && writer_ != nullptr) {
    ICROWD_RETURN_NOT_OK(PoisonOnError(writer_->Flush()));
  }
  return outcomes;
}

Status ICrowd::OnWorkerLeft(WorkerId worker) {
  static const obs::Counter departures =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.departures",
          {true, "workers marked left (live + replay)"});
  if (failed_) return PoisonedStatus();
  if (worker < 0 || static_cast<size_t>(worker) >= status_.size()) {
    return Status::NotFound("unknown worker " + std::to_string(worker));
  }
  JournalEvent event;
  event.type = JournalEventType::kWorkerLeft;
  event.worker = worker;
  ICROWD_RETURN_NOT_OK(AppendEvent(event));
  departures.Increment();
  holding_.erase(worker);
  activity_.MarkLeft(worker);
  if (status_[worker] == WorkerStatus::kWarmup ||
      status_[worker] == WorkerStatus::kActive) {
    status_[worker] = WorkerStatus::kLeft;
  }
  return Status::OK();
}

Status ICrowd::ReplayTail(const std::vector<JournalEvent>& events) {
  static const obs::Counter replayed =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.journal.replayed_events",
          {false, "journal events re-applied during Restore()"});
  if (events_applied_ >= events.size()) return Status::OK();
  replaying_ = true;
  Status status = Status::OK();
  std::optional<double> tick;
  for (size_t i = static_cast<size_t>(events_applied_); i < events.size();
       ++i) {
    const JournalEvent& event = events[i];
    if (event.type != JournalEventType::kTaskRequested) {
      // A tick not followed by its request record is an un-acked request:
      // the writer died (or resumed from an earlier snapshot) before
      // serving it. Dropping it reproduces the state of a process that
      // never saw the request.
      tick.reset();
    }
    switch (event.type) {
      case JournalEventType::kCampaignBegin:
        // Validated by Restore() for index 0; anywhere else the journal
        // was concatenated or corrupted.
        if (i != 0) {
          status = Status::InvalidArgument(
              "campaign-begin record in mid-journal");
        }
        break;
      case JournalEventType::kClockTick:
        tick = event.time;
        break;
      case JournalEventType::kWorkerArrived: {
        auto arrived = OnWorkerArrived();
        if (!arrived.ok()) {
          status = arrived.status();
        } else if (*arrived != event.worker) {
          status = ReplayDiverged("worker arrival", event.worker, *arrived);
        }
        break;
      }
      case JournalEventType::kTaskRequested: {
        if (!tick.has_value()) {
          status = Status::InvalidArgument(
              "journal request without a preceding clock tick");
          break;
        }
        auto served = ServeRequest(event.worker, *tick);
        tick.reset();
        if (!served.ok()) {
          status = served.status();
        } else if (served->value_or(kNoTaskServed) != event.task) {
          status = ReplayDiverged("task request", event.task,
                                  served->value_or(kNoTaskServed));
        }
        break;
      }
      case JournalEventType::kAnswerSubmitted:
        // The live path stamps an answer with now_ (the time of the
        // campaign's latest request); any other journaled time is not a
        // stream this code produced.
        if (event.time != now_) {
          status = ReplayDiverged("answer time", event.time, now_);
          break;
        }
        status = SubmitAnswerImpl(event.worker, event.task, event.answer,
                                  /*flush_journal=*/false);
        break;
      case JournalEventType::kWorkerLeft:
        status = OnWorkerLeft(event.worker);
        break;
    }
    if (!status.ok()) break;
    replayed.Increment();
    events_applied_ = i + 1;
  }
  if (status.ok() && tick.has_value()) {
    // The journal ends on a tick whose request record never made it out (a
    // crash inside RequestTask). The request was never acknowledged, so the
    // tick stays un-applied: a continuation re-derives it — and its journal
    // append — when the request is actually made.
    --events_applied_;
  }
  replaying_ = false;
  return status;
}

Result<std::vector<uint8_t>> ICrowd::SerializeSnapshot() const {
  BinaryWriter writer;
  writer.U32(kSnapshotMagic);
  writer.U32(kJournalFormatVersion);
  writer.U64(fingerprint_);
  writer.U64(events_applied_);
  writer.F64(now_);
  state_.SerializeState(&writer);
  writer.U64(status_.size());
  for (WorkerStatus s : status_) writer.U8(static_cast<uint8_t>(s));
  std::vector<std::pair<WorkerId, TaskId>> holding(holding_.begin(),
                                                   holding_.end());
  std::sort(holding.begin(), holding.end());
  writer.U64(holding.size());
  for (const auto& [w, t] : holding) {
    writer.I32(w);
    writer.I32(t);
  }
  activity_.SerializeState(&writer);
  warmup_.SerializeState(&writer);
  ICROWD_RETURN_NOT_OK(strategy_.assigner->SerializeState(&writer));
  return writer.Release();
}

Result<std::vector<uint8_t>> ICrowd::Snapshot() const {
  static const obs::Counter snapshots =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.journal.snapshots",
          {false, "campaign snapshots serialized"});
  if (failed_) return PoisonedStatus();
  snapshots.Increment();
  return SerializeSnapshot();
}

Status ICrowd::ApplySnapshot(BinaryReader* reader) {
  if (reader->U32() != kSnapshotMagic) {
    return Status::InvalidArgument("not an icrowd campaign snapshot");
  }
  uint32_t version = reader->U32();
  if (version != kJournalFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        " is not supported");
  }
  if (reader->U64() != fingerprint_) {
    return Status::FailedPrecondition(
        "snapshot belongs to a different campaign (fingerprint mismatch)");
  }
  events_applied_ = reader->U64();
  now_ = reader->F64();
  ICROWD_RETURN_NOT_OK(state_.RestoreState(reader));
  uint64_t statuses = reader->U64();
  status_.clear();
  for (uint64_t i = 0; i < statuses && reader->ok(); ++i) {
    uint8_t raw = reader->U8();
    if (raw > static_cast<uint8_t>(WorkerStatus::kLeft)) {
      return Status::InvalidArgument("snapshot has an invalid worker status");
    }
    status_.push_back(static_cast<WorkerStatus>(raw));
  }
  holding_.clear();
  uint64_t holding = reader->U64();
  for (uint64_t i = 0; i < holding && reader->ok(); ++i) {
    WorkerId w = reader->I32();
    TaskId t = reader->I32();
    // An in-flight pair must be one RequestTask could have committed: the
    // held task is later indexed into the dataset unchecked.
    if (w < 0 || static_cast<size_t>(w) >= state_.num_workers() || t < 0 ||
        static_cast<size_t>(t) >= state_.num_tasks() ||
        !state_.IsAssignedTo(t, w)) {
      return Status::InvalidArgument(
          "snapshot has an invalid in-flight assignment (worker " +
          std::to_string(w) + ", task " + std::to_string(t) + ")");
    }
    holding_[w] = t;
  }
  ICROWD_RETURN_NOT_OK(activity_.RestoreState(reader));
  ICROWD_RETURN_NOT_OK(warmup_.RestoreState(reader));
  ICROWD_RETURN_NOT_OK(strategy_.assigner->RestoreState(reader, state_));
  ICROWD_RETURN_NOT_OK(reader->status());
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  if (status_.size() != state_.num_workers()) {
    return Status::InvalidArgument(
        "snapshot worker-status table does not match campaign state");
  }
  return Status::OK();
}

ICrowd::WorkerStatus ICrowd::worker_status(WorkerId worker) const {
  if (worker < 0 || static_cast<size_t>(worker) >= status_.size()) {
    return WorkerStatus::kUnknown;
  }
  return status_[worker];
}

std::vector<Label> ICrowd::Results() const {
  std::vector<Label> results(dataset_->size(), kNoLabel);
  for (size_t t = 0; t < dataset_->size(); ++t) {
    auto consensus = state_.Consensus(static_cast<TaskId>(t));
    if (consensus.has_value()) results[t] = *consensus;
  }
  return results;
}

Result<std::vector<Label>> ICrowd::Predictions() const {
  std::vector<AnswerRecord> work_answers;
  for (const AnswerRecord& a : state_.AllAnswers()) {
    if (!state_.IsQualification(a.task)) work_answers.push_back(a);
  }
  return AggregatePredictions(strategy_, Results(), work_answers);
}

}  // namespace icrowd
