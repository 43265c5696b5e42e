#ifndef ICROWD_CORE_ICROWD_H_
#define ICROWD_CORE_ICROWD_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "core/config.h"
#include "core/strategy_factory.h"
#include "graph/ppr.h"
#include "host/host_config.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "model/campaign_state.h"
#include "model/dataset.h"
#include "qualification/qualification_selector.h"
#include "qualification/warmup.h"
#include "sim/activity_tracker.h"

namespace icrowd {

/// Version of the corpus index encoding (the PPR engine file a host keeps
/// under journal_dir); part of CorpusFingerprint, so a new encoding never
/// meets an old file under the same name.
inline constexpr uint32_t kCorpusIndexFormatVersion = 1;

/// The iCrowd system facade: the full adaptive-crowdsourcing pipeline
/// behind the three callbacks a crowdsourcing platform integration needs
/// (Appendix A's ExternalQuestion bridge):
///   * OnWorkerArrived()           — a worker accepted a HIT,
///   * RequestTask(worker)         — the worker's iframe asks for a task,
///   * SubmitAnswer(worker, ...)   — the worker submitted an answer.
/// Internally it selects qualification tasks (Algorithm 4), runs warm-up on
/// each new worker, estimates accuracies on the similarity graph
/// (Algorithm 1) and serves assignments through config.strategy — the
/// adaptive assigner (Algorithms 2-3) by default, or any §6 baseline or
/// ablation. Workers never see which tasks are qualifications. It is the
/// only campaign loop: served campaigns and the paper's experiments (a
/// simulated crowd driving these callbacks) run the same decision code.
///
/// Durability (DESIGN.md §11): with config.journal_sink set, every mutating
/// callback appends a journal record *before* touching canonical state.
/// Snapshot() serializes the full campaign; Restore() rebuilds the pipeline
/// deterministically, applies the snapshot, and replays the journal tail
/// through the live callbacks — producing a campaign bit-identical to
/// the uninterrupted run. All configuration is fixed at Create()/Restore();
/// the facade has no setters.
///
/// Threading contract: single-writer. One thread at a time drives the
/// mutating callbacks (for a hosted campaign that thread is its
/// CampaignManager shard), so the campaign holds no locks of its own and
/// appears nowhere in tools/lock_order.txt; cross-thread handoff and
/// waiting live entirely in CampaignManager/BoundedEventQueue. Readers may
/// inspect the campaign only at quiescent points (after
/// CampaignManager::Drain()).
class ICrowd {
 public:
  enum class WorkerStatus { kUnknown, kWarmup, kActive, kRejected, kLeft };

  /// Builds the pipeline: similarity graph over `dataset`, one PPR
  /// precompute shared by qualification selection (greedy or random) and
  /// the accuracy estimator, the strategy, warm-up. Fails if the dataset
  /// is empty or configured tasks lack ground truth for qualification.
  /// When config.journal_sink is set the campaign-begin record is appended
  /// (and flushed) before this returns. `host` carries execution-only knobs
  /// (the facade reads its threads and pool) and never affects a decision —
  /// the defaulted value is the v1-compatible serial configuration.
  /// `engine`, when non-null, is the campaign's offline phase already done
  /// (BuildEngine, a corpus index loaded under CorpusFingerprint, or the
  /// engine of another campaign on the same corpus): the graph build and
  /// PPR precompute are skipped. The engine is immutable, so campaigns on
  /// any threads may share one; null builds a private engine.
  static Result<std::unique_ptr<ICrowd>> Create(
      Dataset dataset, ICrowdConfig config = {}, HostConfig host = {},
      std::shared_ptr<const PprEngine> engine = nullptr);

  /// Recovers a campaign from a Snapshot() image and/or a journal byte
  /// stream (either may be empty, not both): rebuilds the pipeline from
  /// (dataset, config) exactly as Create() would, verifies the campaign
  /// fingerprint, applies the snapshot, then replays every journal event
  /// past the snapshot point through the live callbacks, verifying each
  /// journaled outcome (arrival id, served task, answer time). A record the
  /// callbacks refuse fails the restore with their Status, as does a
  /// snapshot holding an in-flight task the campaign never assigned. A torn
  /// final record (mid-append crash) is expected and dropped; a snapshot
  /// newer than the journal tail replays nothing. config.journal_sink, when
  /// set, starts receiving *new* events only after replay completes — pass
  /// a sink positioned at the journal's end (e.g. an append-mode FileSink).
  /// `host` may differ freely from the recording run's HostConfig: replay
  /// is bit-identical at any thread count or shard layout. `engine` is as
  /// for Create.
  static Result<std::unique_ptr<ICrowd>> Restore(
      Dataset dataset, ICrowdConfig config,
      const std::vector<uint8_t>& snapshot,
      const std::vector<uint8_t>& journal_bytes, HostConfig host = {},
      std::shared_ptr<const PprEngine> engine = nullptr);

  /// Restore from a journal the caller already decoded with ReadJournal
  /// (and may have trimmed), so its bytes are not parsed a second time.
  /// Restore is ReadJournal followed by this.
  static Result<std::unique_ptr<ICrowd>> RestoreParsed(
      Dataset dataset, ICrowdConfig config,
      const std::vector<uint8_t>& snapshot, const JournalParse& journal,
      HostConfig host = {}, std::shared_ptr<const PprEngine> engine = nullptr);

  /// A campaign's offline phase on its own: the similarity graph over
  /// `dataset` under config.graph, then the PPR precompute under
  /// config.estimator.ppr. It depends only on what CorpusFingerprint hashes.
  static Result<PprEngine> BuildEngine(const Dataset& dataset,
                                       const ICrowdConfig& config);

  /// Hash of everything BuildEngine's output depends on — task count and
  /// text, task features under the Euclidean measure, config.graph, the
  /// PPR options — plus kCorpusIndexFormatVersion. Campaigns that differ
  /// only in strategy, workers or seed share it; it keys the persisted
  /// corpus index (DESIGN.md §11).
  static uint64_t CorpusFingerprint(const Dataset& dataset,
                                    const ICrowdConfig& config);

  const Dataset& dataset() const { return *dataset_; }
  const ICrowdConfig& config() const { return config_; }
  const HostConfig& host_config() const { return host_config_; }
  /// The selected qualification tasks and their influence (Definition 5).
  const QualificationSelection& qualification() const {
    return qualification_;
  }
  const std::vector<TaskId>& qualification_tasks() const {
    return qualification_.tasks;
  }
  const CampaignState& state() const { return state_; }
  /// The campaign's strategy: its assigner (read-only: Stats()), its
  /// aggregation and, for estimating strategies, accuracy_fn.
  const Strategy& strategy() const { return strategy_; }

  /// Registers a newly arrived worker and returns its id. Fails only when
  /// the campaign is poisoned (see failed()) or the journal append fails.
  Result<WorkerId> OnWorkerArrived();

  /// Serves the next task for `worker` (a qualification task during
  /// warm-up, an adaptive assignment afterwards) and marks it assigned.
  /// Returns nullopt when the worker is rejected, has left, or nothing is
  /// assignable; the integration should then release the worker's HIT.
  Result<std::optional<TaskId>> RequestTask(WorkerId worker);

  /// Accepts the worker's answer for the task it currently holds. The
  /// journal is flushed before the answer is applied — a crash after OK
  /// never loses an acknowledged answer.
  Status SubmitAnswer(WorkerId worker, TaskId task, Label answer);

  /// Marks the worker inactive (returned/abandoned the HIT).
  Status OnWorkerLeft(WorkerId worker);

  /// Batched ingestion (DESIGN.md §12): the host's shard loop calls it once
  /// per campaign slice, while CrowdSimulator and DriveCampaign call the
  /// per-event callbacks above directly. Applies `events` in order
  /// through those same callbacks — journal bytes, campaign state and every
  /// deterministic metric are bit-identical to issuing the calls one by one
  /// (the batch-invariance contract; tests/ingest_test.cc enforces it).
  /// What batching changes is durability granularity: the journal is group
  /// committed once per batch instead of per answer, so the ack point for
  /// every outcome is this call's return. Recoverable per-event errors
  /// (unknown worker, answering an unheld task, ...) are reported in that
  /// event's outcome.status and do not stop the batch; a campaign-poisoning
  /// failure aborts it and is returned as the batch error.
  Result<std::vector<IngestOutcome>> ApplyEventBatch(
      const std::vector<IngestEvent>& events);

  /// Serializes the complete campaign state (bookkeeping, warm-up
  /// progress, estimator observations, assigner plan, activity windows and
  /// the journal position) so a later Restore() needs only the journal
  /// tail past this point. Fails on a poisoned campaign, and returns
  /// Unimplemented for strategies whose assigner has no snapshot form
  /// (Assigner::SerializeState) — those recover from the journal alone.
  Result<std::vector<uint8_t>> Snapshot() const;

  /// Workers currently counted active (accepted by warm-up, not left, and
  /// requested within the activity window ending at now()).
  std::vector<WorkerId> ActiveWorkers() const;

  /// The task `worker` was served but has not answered yet, if any. A
  /// campaign restored from a crash can carry such in-flight assignments;
  /// the worker must submit (or leave) before requesting again.
  std::optional<TaskId> HeldTask(WorkerId worker) const;

  WorkerStatus worker_status(WorkerId worker) const;

  /// True once every microtask is globally completed.
  bool Finished() const { return state_.AllCompleted(); }

  /// Per-task results: the consensus where reached, ground truth for
  /// qualification tasks, kNoLabel otherwise.
  std::vector<Label> Results() const;

  /// Per-task predictions under the strategy's aggregation (§6.1): the
  /// consensus for the consensus-based strategies; majority vote, EM or
  /// probabilistic verification over the work answers for the baselines.
  Result<std::vector<Label>> Predictions() const;

  /// Journal stream position: events applied so far, counting the
  /// campaign-begin record. A snapshot taken now replays from this index.
  uint64_t events_applied() const { return events_applied_; }

  /// Last observed campaign time (the timestamp of the latest request).
  double now() const { return now_; }

  /// Hash binding journals and snapshots to this (dataset, config) pair.
  uint64_t fingerprint() const { return fingerprint_; }

  /// True after a journal append or post-append apply failed: campaign
  /// state and journal may disagree, so every further mutating call is
  /// refused and the caller must Restore() from the persisted journal.
  bool failed() const { return failed_; }

 private:
  ICrowd(std::unique_ptr<const Dataset> dataset, ICrowdConfig config,
         HostConfig host, QualificationSelection qualification,
         WarmupComponent warmup, Strategy strategy);

  /// Deterministic pipeline construction shared by Create and Restore
  /// (everything except journal attachment / begin record).
  static Result<std::unique_ptr<ICrowd>> Build(
      Dataset dataset, ICrowdConfig config, HostConfig host,
      std::shared_ptr<const PprEngine> engine);

  /// Appends one record to the journal (no-op during replay or when
  /// unjournaled) and advances the stream position. Append failures poison
  /// the campaign.
  Status AppendEvent(const JournalEvent& event);

  /// Returns `status`, poisoning the campaign if it is an error (a failure
  /// after a journal append leaves state and journal disagreeing).
  Status PoisonOnError(Status status);

  /// Next activity timestamp: configured clock, or logical now_ + 1.
  double NextTime() const;

  /// The assignment decision for one request at now_ — status transitions,
  /// warm-up evaluation and the strategy's assigner — without committing
  /// the served task. The only caller of Assigner::RequestTask and
  /// Assigner::OnWorkerRegistered.
  Result<std::optional<TaskId>> DecideTask(WorkerId worker);

  /// RequestTask body at campaign time `time`: validation, the tick and
  /// request appends, the decision and its commit (slot consumption +
  /// in-flight holding). The live call passes NextTime(); replay passes the
  /// journaled tick time.
  Result<std::optional<TaskId>> ServeRequest(WorkerId worker, double time);

  /// SubmitAnswer body with the journal flush gated: the per-event path
  /// flushes before applying (per-answer ack), the batched path defers to
  /// one group commit at the end of ApplyEventBatch.
  Status SubmitAnswerImpl(WorkerId worker, TaskId task, Label answer,
                          bool flush_journal);

  /// Replays journal events with index >= events_applied_ through the live
  /// callbacks (appends suppressed by replaying_), adding only tick pairing,
  /// the mid-journal campaign-begin check and the outcome checks: arrival
  /// id, served task and answer time must match ("replay diverged").
  Status ReplayTail(const std::vector<JournalEvent>& events);

  Result<std::vector<uint8_t>> SerializeSnapshot() const;
  Status ApplySnapshot(BinaryReader* reader);

  /// Heap-held so the warm-up and the strategy, which borrow it, can be
  /// built before the facade exists.
  std::unique_ptr<const Dataset> dataset_;
  ICrowdConfig config_;
  HostConfig host_config_;
  QualificationSelection qualification_;
  WarmupComponent warmup_;
  Strategy strategy_;
  CampaignState state_;
  std::vector<WorkerStatus> status_;
  /// Task currently held by each worker (in-flight assignment).
  std::unordered_map<WorkerId, TaskId> holding_;
  ActivityTracker activity_;

  uint64_t fingerprint_ = 0;
  std::unique_ptr<JournalWriter> writer_;
  bool replaying_ = false;
  bool failed_ = false;
  uint64_t events_applied_ = 0;
  /// Campaign time of the latest observed request (logical or clock).
  double now_ = 0.0;
};

}  // namespace icrowd

#endif  // ICROWD_CORE_ICROWD_H_
