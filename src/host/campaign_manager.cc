#include "host/campaign_manager.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "host/recovery_files.h"
#include "io/crc32.h"
#include "journal/journal.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/http/http_server.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

/// The host's metric handles, registered together on first use. All are
/// deterministic=false: routing and batching shape them by design. The
/// icrowd.ingest.* stage metrics are the per-stage latency attribution of
/// DESIGN.md §14, recorded by the shard loop that serves traffic — queue
/// wait and batch assembly per popped batch, apply per campaign slice,
/// journal flush inside JournalWriter — so one statusz read localizes a
/// bottleneck to a stage.
struct HostMetrics {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter routed = registry.GetCounter(
      "icrowd.host.events_routed",
      {false, "events accepted onto a shard queue by the host"});
  const obs::Counter slices = registry.GetCounter(
      "icrowd.host.batches",
      {false, "per-campaign batch slices applied by shard threads"});
  const obs::Counter orphaned = registry.GetCounter(
      "icrowd.host.events_orphaned",
      {false,
       "events popped for an unregistered shard slot (should stay 0: "
       "CloseCampaign drains before unregistering)"});
  const obs::Counter batches = registry.GetCounter(
      "icrowd.ingest.batches", {false, "ingest batches applied"});
  const obs::Counter applied = registry.GetCounter(
      "icrowd.ingest.events_applied",
      {false, "events applied through the batched path"});
  const obs::Counter refused = registry.GetCounter(
      "icrowd.ingest.events_refused",
      {false,
       "applied events the campaign refused with a per-event error (a "
       "subset of events_applied)"});
  const obs::Counter abandoned = registry.GetCounter(
      "icrowd.ingest.events_abandoned",
      {false, "queued events settled unapplied after a campaign failed"});
  const obs::Histogram batch_size = registry.GetHistogram(
      "icrowd.ingest.batch_size", obs::ExponentialBuckets(1, 2, 10),
      {false, "events coalesced per applied ingest batch"});
  const obs::Histogram queue_wait = registry.GetHistogram(
      "icrowd.ingest.queue_wait_seconds", obs::ExponentialBuckets(1e-6, 4, 12),
      {false, "enqueue-to-dequeue latency per ingest event"});
  const obs::Histogram batch_assembly = registry.GetHistogram(
      "icrowd.ingest.batch_assembly_seconds",
      obs::ExponentialBuckets(1e-6, 4, 12),
      {false,
       "PopBatch duration per batch (includes the idle wait for the first "
       "event)"});
  const obs::Histogram apply = registry.GetHistogram(
      "icrowd.ingest.apply_seconds", obs::ExponentialBuckets(1e-6, 4, 12),
      {false, "ApplyEventBatch duration per campaign slice"});
  // Recovery files (DESIGN.md §11): checkpoints and the corpus index.
  const obs::Counter checkpoints_written = registry.GetCounter(
      "icrowd.host.checkpoints_written",
      {false, "campaign checkpoints written by shard threads"});
  const obs::Counter checkpoints_skipped = registry.GetCounter(
      "icrowd.host.checkpoints_skipped",
      {false,
       "checkpoint intervals crossed by strategies without a snapshot form"});
  const obs::Counter checkpoints_failed = registry.GetCounter(
      "icrowd.host.checkpoints_failed",
      {false, "checkpoint writes that failed (the journal is unaffected)"});
  const obs::Histogram checkpoint_seconds = registry.GetHistogram(
      "icrowd.host.checkpoint_seconds", obs::ExponentialBuckets(1e-6, 4, 12),
      {false, "snapshot + write + rename per checkpoint"});
  const obs::Counter checkpoint_restores = registry.GetCounter(
      "icrowd.host.checkpoint_restores",
      {false, "OpenCampaign calls that replayed only the journal tail past a "
              "checkpoint"});
  const obs::Counter checkpoint_fallbacks = registry.GetCounter(
      "icrowd.host.checkpoint_fallbacks",
      {false,
       "OpenCampaign calls that found a checkpoint but replayed the full "
       "journal (damaged, stale, or ahead of the journal)"});
  const obs::Counter index_loads = registry.GetCounter(
      "icrowd.host.index_loads",
      {false, "PPR engines loaded from a corpus index instead of solved"});
  const obs::Counter index_rebuilds = registry.GetCounter(
      "icrowd.host.index_rebuilds",
      {false,
       "OpenCampaign calls whose corpus index was missing, mismatched or "
       "corrupt (rebuilt and rewritten)"});
  const obs::Counter index_writes = registry.GetCounter(
      "icrowd.host.index_writes", {false, "corpus index files written"});
  const obs::Counter engine_shares = registry.GetCounter(
      "icrowd.host.engine_shares",
      {false,
       "campaigns created or opened on a PPR engine the manager already "
       "held for their corpus"});
  const obs::Counter index_write_failures = registry.GetCounter(
      "icrowd.host.index_write_failures",
      {false, "corpus index writes that failed (the campaign is unaffected)"});
};

const HostMetrics& Metrics() {
  static const HostMetrics metrics;
  return metrics;
}

/// Applies one campaign slice and times it, adding to `*refused` the events
/// the campaign refused (a non-OK outcome, e.g. an answer for a task the
/// worker does not hold). A throw out of the apply stage (a journal sink,
/// or a pool task rethrown by ParallelFor) becomes a Status here instead of
/// escaping the shard thread into std::terminate: the caller records it as
/// that campaign's sticky failure, and the shard keeps serving its other
/// campaigns.
Status ApplySlice(ICrowd* system, const std::vector<IngestEvent>& events,
                  uint64_t* refused) {
  try {
    Stopwatch apply;
    auto outcomes = system->ApplyEventBatch(events);
    Metrics().apply.Observe(apply.ElapsedSeconds());
    if (!outcomes.ok()) return outcomes.status();
    Metrics().applied.Increment(outcomes->size());
    uint64_t slice_refused = 0;
    for (const IngestOutcome& outcome : *outcomes) {
      if (!outcome.status.ok()) ++slice_refused;
    }
    Metrics().refused.Increment(slice_refused);
    *refused += slice_refused;
    return Status::OK();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ingest apply stage threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("ingest apply stage threw a non-std exception");
  }
}

/// `name` becomes a journal file stem and a Prometheus label value, so it
/// is restricted to characters that are safe verbatim in both.
Status ValidateName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("campaign name must not be empty");
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "campaign name '" + name +
          "' has characters outside [A-Za-z0-9_.-]");
    }
  }
  return Status::OK();
}

std::string ShardDir(const std::string& journal_dir, size_t shard) {
  return journal_dir + "/shard-" + std::to_string(shard);
}

std::string JournalPath(const std::string& shard_dir,
                        const std::string& name) {
  return shard_dir + "/" + name + ".journal";
}

/// `<name>.ckpt` beside `<name>.journal`.
std::string CheckpointPath(const std::string& journal_path) {
  return std::filesystem::path(journal_path).replace_extension(".ckpt");
}

std::string CorpusIndexPath(const std::string& journal_dir,
                            uint64_t corpus_fingerprint) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.ppr",
                static_cast<unsigned long long>(corpus_fingerprint));
  return journal_dir + "/index/" + name;
}

/// Writes the corpus index for `engine`; a failure only costs the next
/// OpenCampaign a rebuild, so it is counted, not returned.
bool WriteCorpusIndex(const std::string& path, uint64_t corpus_fingerprint,
                      const PprEngine& engine, bool fsync) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  Status written = WriteCorpusIndexFile(path, corpus_fingerprint, engine,
                                        fsync);
  if (written.ok()) {
    Metrics().index_writes.Increment();
  } else {
    Metrics().index_write_failures.Increment();
  }
  return written.ok();
}

/// The checkpoint `read` from beside the journal, if one exists and binds
/// to it: every frame intact, the campaign fingerprint of the journal's
/// begin record, an offset inside the intact journal that ends exactly
/// after `events_applied` records, and a matching CRC of that prefix
/// (`prefix_crc`, the journal's CRC-32 over its first
/// min(journal_offset, size) bytes). Anything else is counted and ignored —
/// the full journal replays instead.
std::optional<Checkpoint> QualifyCheckpoint(Result<Checkpoint> read,
                                            const std::vector<uint8_t>& journal,
                                            const JournalParse& parse,
                                            uint32_t prefix_crc) {
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return std::nullopt;
  }
  bool bound = read.ok() && !parse.events.empty() &&
               read->fingerprint == parse.events.front().fingerprint &&
               read->journal_offset <= journal.size() &&
               prefix_crc == read->journal_crc;
  if (bound) {
    // The journal prefix is intact frames, so its length words can be
    // walked without checks.
    uint64_t offset = 0;
    uint64_t records = 0;
    while (offset < read->journal_offset) {
      BinaryReader header(journal.data() + offset, kFrameHeaderBytes);
      offset += kFrameHeaderBytes + header.U32();
      ++records;
    }
    bound = offset == read->journal_offset &&
            records == read->events_applied;
  }
  if (!bound) {
    Metrics().checkpoint_fallbacks.Increment();
    return std::nullopt;
  }
  return read.MoveValueOrDie();
}

/// Finds `<name>.journal` under any shard-* directory of `journal_dir`.
/// The campaign may be reopened under a different shard count than the
/// run that wrote the file — the path records where it was *written*,
/// not where it runs now — so every shard directory is searched, in
/// sorted order for determinism.
Result<std::string> LocateJournal(const std::string& journal_dir,
                                  const std::string& name) {
  std::error_code ec;
  std::vector<std::string> shard_dirs;
  for (const auto& entry :
       std::filesystem::directory_iterator(journal_dir, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      shard_dirs.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::NotFound("cannot list journal_dir '" + journal_dir +
                            "': " + ec.message());
  }
  std::sort(shard_dirs.begin(), shard_dirs.end());
  for (const std::string& dir : shard_dirs) {
    std::string path = JournalPath(dir, name);
    if (std::filesystem::exists(path, ec)) return path;
  }
  return Status::NotFound("no journal for campaign '" + name + "' under '" +
                          journal_dir + "'");
}

/// `<name>.journal` reopened for recovery: its intact records, the
/// checkpoint that binds to them (if any), and the append-positioned
/// checksumming sink the campaign journals through from here on.
struct ReopenedJournal {
  JournalParse parse;
  std::optional<Checkpoint> checkpoint;
  std::shared_ptr<ChecksummedSink> sink;
};

/// Reads a campaign's journal file, refuses mid-log corruption (DataLoss,
/// file untouched), trims a torn tail and an orphan clock tick (new records
/// must never append after garbage), qualifies the checkpoint beside it and
/// reattaches an append-positioned sink. The bytes are parsed once, and
/// checksummed once beyond the per-frame checks: one CRC pass yields both
/// the checkpoint's prefix CRC and the sink's running state.
Result<ReopenedJournal> ReopenJournal(const std::string& path,
                                      FileSink::Options file_options) {
  ReopenedJournal reopened;
  ICROWD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  ICROWD_ASSIGN_OR_RETURN(reopened.parse, ReadJournal(bytes));
  JournalParse& parse = reopened.parse;
  size_t keep = parse.valid_bytes;
  if (!parse.events.empty() &&
      parse.events.back().type == JournalEventType::kClockTick) {
    // A tick with no request after it is the torn half of a RequestTask
    // that was never acknowledged. It goes with the torn bytes, so the
    // continuation journals its tick where the original stood and the
    // sink's byte count and prefix CRC cover exactly the applied records.
    keep -= parse.last_record_bytes;
    parse.events.pop_back();
  }
  if (keep < bytes.size()) {
    bytes.resize(keep);
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn journal '" + path +
                              "': " + ec.message());
    }
  }
  auto checkpoint = ReadCheckpointFile(CheckpointPath(path));
  const size_t prefix =
      checkpoint.ok()
          ? static_cast<size_t>(
                std::min<uint64_t>(checkpoint->journal_offset, bytes.size()))
          : 0;
  uint32_t crc = Crc32Update(Crc32Begin(), bytes.data(), prefix);
  const uint32_t prefix_crc = Crc32Finish(crc);
  crc = Crc32Update(crc, bytes.data() + prefix, bytes.size() - prefix);
  reopened.checkpoint =
      QualifyCheckpoint(std::move(checkpoint), bytes, parse, prefix_crc);
  ICROWD_ASSIGN_OR_RETURN(
      std::unique_ptr<FileSink> file,
      FileSink::Open(path, /*truncate=*/false, file_options));
  reopened.sink =
      std::make_shared<ChecksummedSink>(std::move(file), bytes.size(), crc);
  return reopened;
}

/// Restores a reopened campaign through the normal replay path: from the
/// checkpoint plus the journal tail when one qualifies, else from the full
/// journal. A checkpoint that passes every check but still fails to
/// restore is dropped for a full replay on the same engine.
Result<std::unique_ptr<ICrowd>> RestoreReopened(
    const ReopenedJournal& journal, Dataset dataset, ICrowdConfig config,
    const HostConfig& host, const std::shared_ptr<const PprEngine>& engine) {
  if (journal.checkpoint.has_value()) {
    auto restored = ICrowd::RestoreParsed(dataset, config,
                                          journal.checkpoint->snapshot,
                                          journal.parse, host, engine);
    if (restored.ok()) {
      Metrics().checkpoint_restores.Increment();
      return restored;
    }
    Metrics().checkpoint_fallbacks.Increment();
  }
  return ICrowd::RestoreParsed(std::move(dataset), std::move(config), {},
                               journal.parse, host, engine);
}

/// The host's embedded observability stack, null when host.serve_obs_port
/// is off or the bind fails (Start() turns the latter into an error).
std::unique_ptr<obs::EmbeddedObs> MakeObs(const HostConfig& host,
                                          CampaignManager* manager) {
  if (host.serve_obs_port < 0) return nullptr;
  obs::ObsServer::Options options;
  options.bind_address = host.serve_obs_bind;
  options.port = host.serve_obs_port;
  options.campaign_label = host.campaign_label;
  options.extra_metricsz = [manager] {
    return manager->RenderCampaignMetrics();
  };
  options.extra_statusz = [manager] {
    return manager->RenderCampaignStatusz();
  };
  return obs::EmbeddedObs::Start(std::move(options));
}

}  // namespace

/// Host-side record of one hosted campaign. The settle ledger and stats
/// mirror (everything below `system`) are guarded by the owning shard's
/// shard_mu_ — not annotatable here because the mutex lives in Shard.
struct CampaignManager::Campaign {
  uint64_t id = 0;
  std::string name;
  size_t shard_index = 0;
  /// Index into the owning shard's slot table; stamped on every routed
  /// event. Immutable after Register.
  uint32_t slot = 0;
  std::unique_ptr<ICrowd> system;
  /// The corpus's shared PPR engine. Held here as well as by the estimator
  /// (which strategies without one drop), so the engine lives exactly as
  /// long as some campaign on its corpus.
  std::shared_ptr<const PprEngine> engine;
  /// Set in VectorSink mode only: no explicit sink, and journal_dir empty
  /// on create or explicit recovery images on open.
  std::shared_ptr<VectorSink> memory_journal;
  /// Set for campaigns journaling to `<name>.journal` under journal_dir:
  /// the journal's position and prefix CRC, and where checkpoints go.
  /// Written at construction, then by the shard thread only.
  std::shared_ptr<ChecksummedSink> journal_file;
  std::string checkpoint_path;
  /// events_applied() from which the next checkpoint is due.
  uint64_t next_checkpoint = 0;

  uint64_t submitted = 0;
  uint64_t settled = 0;
  Status failure = Status::OK();
  uint64_t events_applied = 0;
  /// Applied events the campaign refused; written by the shard thread.
  uint64_t refused = 0;
  uint64_t answers = 0;
  uint64_t workers = 0;
  bool finished = false;
};

CampaignManager::Shard::Shard(size_t capacity)
    : queue(std::make_unique<BoundedEventQueue>(capacity)) {}

CampaignManager::CampaignManager(HostConfig host,
                                 std::vector<std::unique_ptr<Shard>> shards)
    : host_(std::move(host)),
      shards_(std::move(shards)),
      obs_(MakeObs(host_, this)) {}

Result<std::unique_ptr<CampaignManager>> CampaignManager::Start(
    HostConfig host) {
  if (host.num_shards == 0) host.num_shards = 1;
  if (host.num_threads != 1 && host.pool == nullptr) {
    host.pool = std::make_shared<ThreadPool>(host.num_threads);
  }
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(host.num_shards);
  for (size_t i = 0; i < host.num_shards; ++i) {
    shards.push_back(std::make_unique<Shard>(host.queue_capacity));
  }
  std::unique_ptr<CampaignManager> manager(
      new CampaignManager(std::move(host), std::move(shards)));
  if (manager->host_.serve_obs_port >= 0 && manager->obs_ == nullptr) {
    return Status::Internal("campaign host observability server failed to "
                            "start (port in use?)");
  }
  MutexLock lock(manager->manager_mu_);
  for (size_t i = 0; i < manager->shards_.size(); ++i) {
    manager->shard_threads_.emplace_back(
        [raw = manager.get(), i] { raw->RunShard(i); });
  }
  return manager;
}

CampaignManager::~CampaignManager() {
  Shutdown();
}

void CampaignManager::Shutdown() {
  {
    MutexLock lock(manager_mu_);
    shutdown_ = true;
  }
  for (const auto& shard : shards_) shard->queue->Close();
  std::vector<std::thread> threads;
  {
    MutexLock lock(manager_mu_);
    threads.swap(shard_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

Result<CampaignManager::Ref> CampaignManager::Lookup(
    CampaignHandle handle) const {
  MutexLock lock(manager_mu_);
  auto it = campaigns_.find(handle.id);
  if (it == campaigns_.end()) {
    return Status::NotFound("no hosted campaign with handle id " +
                            std::to_string(handle.id));
  }
  return Ref{shards_[it->second->shard_index].get(), it->second.get()};
}

CampaignHandle CampaignManager::Register(
    std::unique_ptr<Campaign> campaign) {
  Shard* shard = shards_[campaign->shard_index].get();
  {
    MutexLock lock(shard->shard_mu_);
    campaign->slot = static_cast<uint32_t>(shard->slots.size());
    shard->slots.push_back(campaign.get());
  }
  CampaignHandle handle{campaign->id};
  MutexLock lock(manager_mu_);
  campaigns_[campaign->id] = std::move(campaign);
  return handle;
}

Result<CampaignHandle> CampaignManager::AddCampaign(CampaignOptions options,
                                                    bool restore) {
  ICROWD_RETURN_NOT_OK(ValidateName(options.name));
  auto campaign = std::make_unique<Campaign>();
  campaign->name = options.name;
  {
    MutexLock lock(manager_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("campaign host is shut down");
    }
    if (!names_.insert(options.name).second) {
      return Status::AlreadyExists("campaign name '" + options.name +
                                   "' is already hosted");
    }
    campaign->id = next_id_++;
    campaign->shard_index = next_shard_++ % shards_.size();
  }
  // Pipeline construction (graph build, PPR) runs on the caller's thread
  // outside every host lock, so creations proceed concurrently and never
  // stall routing. On failure the name reservation is rolled back; the
  // id and the round-robin cursor are not reused — placement is a
  // function of creation *attempts*, which is still deterministic.
  Result<std::unique_ptr<ICrowd>> system =
      BuildCampaign(campaign.get(), std::move(options), restore);
  if (!system.ok()) {
    MutexLock lock(manager_mu_);
    names_.erase(campaign->name);
    return system.status();
  }
  campaign->system = system.MoveValueOrDie();
  campaign->next_checkpoint =
      (campaign->system->events_applied() / kCheckpointInterval + 1) *
      kCheckpointInterval;
  return Register(std::move(campaign));
}

Result<std::unique_ptr<ICrowd>> CampaignManager::BuildCampaign(
    Campaign* campaign, CampaignOptions options, bool restore) {
  HostConfig campaign_host;
  campaign_host.num_threads = host_.num_threads;
  campaign_host.pool = host_.pool;
  const FileSink::Options file_options{host_.fsync_journal};
  ICrowdConfig& config = options.config;
  // The journal first: a campaign that cannot journal costs no engine.
  std::optional<ReopenedJournal> reopened;
  if (restore && options.snapshot.empty() && options.journal.empty()) {
    if (host_.journal_dir.empty()) {
      return Status::InvalidArgument(
          "OpenCampaign needs explicit snapshot/journal bytes or a "
          "HostConfig journal_dir to recover from");
    }
    ICROWD_ASSIGN_OR_RETURN(std::string path,
                            LocateJournal(host_.journal_dir, campaign->name));
    ICROWD_ASSIGN_OR_RETURN(reopened, ReopenJournal(path, file_options));
    campaign->journal_file = reopened->sink;
    campaign->checkpoint_path = CheckpointPath(path);
    config.journal_sink = reopened->sink;
  } else if (config.journal_sink != nullptr) {
    // An explicit sink (the fault-injection hook) is left untouched.
  } else if (restore || host_.journal_dir.empty()) {
    campaign->memory_journal = std::make_shared<VectorSink>();
    config.journal_sink = campaign->memory_journal;
  } else {
    std::string dir = ShardDir(host_.journal_dir, campaign->shard_index);
    std::string path = JournalPath(dir, campaign->name);
    campaign->checkpoint_path = CheckpointPath(path);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("cannot create journal directory '" + dir +
                              "': " + ec.message());
    }
    // A checkpoint of an earlier campaign under this name must not
    // outlive the journal it described.
    std::filesystem::remove(campaign->checkpoint_path, ec);
    ICROWD_ASSIGN_OR_RETURN(
        std::unique_ptr<FileSink> sink,
        FileSink::Open(path, /*truncate=*/true, file_options));
    campaign->journal_file =
        std::make_shared<ChecksummedSink>(std::move(sink), 0, Crc32Begin());
    config.journal_sink = campaign->journal_file;
  }
  ICROWD_ASSIGN_OR_RETURN(campaign->engine,
                          CorpusEngine(options.dataset, config, restore));
  if (!restore) {
    return ICrowd::Create(std::move(options.dataset), std::move(config),
                          campaign_host, campaign->engine);
  }
  if (reopened.has_value()) {
    return RestoreReopened(*reopened, std::move(options.dataset),
                           std::move(config), campaign_host,
                           campaign->engine);
  }
  return ICrowd::Restore(std::move(options.dataset), std::move(config),
                         options.snapshot, options.journal, campaign_host,
                         campaign->engine);
}

Result<CampaignHandle> CampaignManager::CreateCampaign(
    CampaignOptions options) {
  return AddCampaign(std::move(options), /*restore=*/false);
}

Result<CampaignHandle> CampaignManager::OpenCampaign(
    CampaignOptions options) {
  return AddCampaign(std::move(options), /*restore=*/true);
}

Status CampaignManager::SubmitEvent(CampaignHandle handle,
                                    const IngestEvent& event) {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  {
    MutexLock lock(ref.shard->shard_mu_);
    if (!ref.campaign->failure.ok()) return ref.campaign->failure;
    ++ref.campaign->submitted;
  }
  IngestEvent routed = event;
  routed.route = ref.campaign->slot;
  if (!ref.shard->queue->Push(routed)) {
    // Queue closed under us (shutdown): the event never made it in —
    // settle it so a pending Drain does not wait forever.
    {
      MutexLock lock(ref.shard->shard_mu_);
      ++ref.campaign->settled;
    }
    ref.shard->settled_cv_.NotifyAll();
    return Status::FailedPrecondition("campaign host is shut down");
  }
  Metrics().routed.Increment();
  return Status::OK();
}

Status CampaignManager::DrainRef(const Ref& ref) {
  MutexLock lock(ref.shard->shard_mu_);
  const uint64_t target = ref.campaign->submitted;
  while (ref.campaign->settled < target && !ref.shard->stopped) {
    ref.shard->settled_cv_.Wait(lock);
  }
  if (ref.campaign->settled < target) {
    return Status::Internal("campaign host shut down with " +
                            std::to_string(target - ref.campaign->settled) +
                            " events still queued");
  }
  return ref.campaign->failure;
}

Status CampaignManager::Drain(CampaignHandle handle) {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  return DrainRef(ref);
}

Status CampaignManager::DrainAll() {
  std::vector<uint64_t> ids;
  {
    MutexLock lock(manager_mu_);
    ids.reserve(campaigns_.size());
    for (const auto& [id, campaign] : campaigns_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  Status first = Status::OK();
  for (uint64_t id : ids) {
    Status drained = Drain(CampaignHandle{id});
    if (first.ok() && !drained.ok()) first = drained;
  }
  return first;
}

Result<std::vector<uint8_t>> CampaignManager::Snapshot(
    CampaignHandle handle) {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  ICROWD_RETURN_NOT_OK(DrainRef(ref));
  return ref.campaign->system->Snapshot();
}

Status CampaignManager::CloseCampaign(CampaignHandle handle) {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  Status drained = DrainRef(ref);
  {
    MutexLock lock(ref.shard->shard_mu_);
    ref.shard->slots[ref.campaign->slot] = nullptr;
  }
  std::unique_ptr<Campaign> owned;
  {
    MutexLock lock(manager_mu_);
    auto it = campaigns_.find(handle.id);
    if (it != campaigns_.end()) {
      owned = std::move(it->second);
      campaigns_.erase(it);
      names_.erase(owned->name);
    }
  }
  // The facade (and its journal sink) is destroyed here, on the caller's
  // thread, after the slot is cleared — the shard thread can no longer
  // reach it.
  owned.reset();
  return drained;
}

Result<const ICrowd*> CampaignManager::Inspect(CampaignHandle handle) const {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  return static_cast<const ICrowd*>(ref.campaign->system.get());
}

Result<std::vector<uint8_t>> CampaignManager::JournalBytes(
    CampaignHandle handle) const {
  ICROWD_ASSIGN_OR_RETURN(Ref ref, Lookup(handle));
  if (ref.campaign->memory_journal == nullptr) {
    return Status::FailedPrecondition(
        "campaign '" + ref.campaign->name +
        "' journals to a file or an explicit sink, not memory");
  }
  return ref.campaign->memory_journal->bytes();
}

size_t CampaignManager::num_campaigns() const {
  MutexLock lock(manager_mu_);
  return campaigns_.size();
}

int CampaignManager::obs_port() const {
  return obs_ != nullptr ? obs_->port() : -1;
}

void CampaignManager::RunShard(size_t shard_index) {
  Shard* shard = shards_[shard_index].get();
  // Heartbeat liveness contract (DESIGN.md §14): idle while parked on the
  // queue, busy from dequeue to settle — a shard wedged inside an apply is
  // what /healthz exists to report. The registry dedupes the name per
  // shard thread ("host.shard#2", ...).
  obs::ScopedHeartbeat heartbeat("host.shard");
  std::vector<IngestEvent> batch;
  // Per-campaign slices regrouped from one popped batch, in order of
  // first appearance. Reused across iterations to avoid reallocating.
  std::vector<std::pair<uint32_t, std::vector<IngestEvent>>> slices;
  for (;;) {
    batch.clear();
    heartbeat->MarkIdle();
    const int64_t pop_start_ns = SteadyNanos();
    size_t n = shard->queue->PopBatch(&batch, host_.max_batch);
    if (n == 0) break;  // closed and drained
    heartbeat->MarkBusy();
    const int64_t dequeued_ns = SteadyNanos();
    const HostMetrics& metrics = Metrics();
    metrics.batch_assembly.Observe(
        static_cast<double>(dequeued_ns - pop_start_ns) * 1e-9);
    metrics.batches.Increment();
    metrics.batch_size.Observe(static_cast<double>(n));
    for (const IngestEvent& event : batch) {
      metrics.queue_wait.Observe(
          static_cast<double>(dequeued_ns - event.enqueue_ns) * 1e-9);
    }
    // Regroup by route. Within one campaign the slice preserves queue
    // (i.e. submission) order; only events of different campaigns
    // reorder relative to each other, which is unobservable — campaigns
    // share no state.
    slices.clear();
    for (const IngestEvent& event : batch) {
      if (slices.empty() || slices.back().first != event.route) {
        slices.emplace_back(event.route, std::vector<IngestEvent>());
      }
      slices.back().second.push_back(event);
    }
    // Adjacent-run grouping above can split one campaign into several
    // slices when interleaved (A A B A -> [AA][B][A]); that only costs an
    // extra group commit, never ordering — slices apply in pop order.
    for (auto& [slot, events] : slices) {
      heartbeat->Beat();
      ApplyCampaignSlice(shard, slot, events);
    }
    (void)shard->queue->SampleDepth();
  }
  {
    MutexLock lock(shard->shard_mu_);
    shard->stopped = true;
  }
  shard->settled_cv_.NotifyAll();
}

void CampaignManager::ApplyCampaignSlice(
    Shard* shard, uint32_t slot, const std::vector<IngestEvent>& events) {
  Campaign* campaign = nullptr;
  bool already_failed = false;
  {
    MutexLock lock(shard->shard_mu_);
    if (slot < shard->slots.size()) campaign = shard->slots[slot];
    if (campaign != nullptr) already_failed = !campaign->failure.ok();
  }
  if (campaign == nullptr) {
    Metrics().orphaned.Increment(events.size());
    return;
  }
  Status failure = Status::OK();
  uint64_t refused = 0;
  if (already_failed) {
    // The campaign poisoned while these were queued: the producer was
    // never acked for them, settle without touching the campaign.
    Metrics().abandoned.Increment(events.size());
    obs::FlightRecorder::Global().Record(obs::FlightEventKind::kMark,
                                         "ingest.abandon",
                                         static_cast<int64_t>(events.size()));
  } else {
    failure = ApplySlice(campaign->system.get(), events, &refused);
    Metrics().slices.Increment();
    // Before the settle: once settled, CloseCampaign may destroy the
    // campaign on another thread.
    if (failure.ok()) MaybeCheckpoint(campaign);
  }
  {
    MutexLock lock(shard->shard_mu_);
    if (!failure.ok() && campaign->failure.ok()) campaign->failure = failure;
    campaign->settled += events.size();
    campaign->refused += refused;
    // Stats mirror refresh: this thread is the campaign's single writer,
    // so reading its state here is race-free, and publishing the copy
    // under shard_mu_ lets scrapes read it without touching the facade.
    campaign->events_applied = campaign->system->events_applied();
    campaign->answers = campaign->system->state().AllAnswers().size();
    campaign->workers = campaign->system->state().num_workers();
    campaign->finished = campaign->system->Finished();
  }
  shard->settled_cv_.NotifyAll();
}

Result<std::shared_ptr<const PprEngine>> CampaignManager::CorpusEngine(
    const Dataset& dataset, const ICrowdConfig& config, bool restore) {
  ICROWD_RETURN_NOT_OK(dataset.Validate());
  const uint64_t fingerprint = ICrowd::CorpusFingerprint(dataset, config);
  // An index file may come from another build of this program, whose graph
  // or PPR arithmetic can differ under the same fingerprint. CreateCampaign
  // therefore shares only an engine built here, so a campaign always
  // recovers on the engine it was created with.
  const auto shareable =
      [restore](const CorpusEntry& entry) -> std::shared_ptr<const PprEngine> {
    if (!restore && !entry.built_here) return nullptr;
    return entry.engine.lock();
  };
  {
    MutexLock lock(manager_mu_);
    auto it = corpora_.find(fingerprint);
    if (it != corpora_.end()) {
      if (auto engine = shareable(it->second)) {
        Metrics().engine_shares.Increment();
        return engine;
      }
    }
  }
  const std::string index_path =
      host_.journal_dir.empty() ? std::string()
                                : CorpusIndexPath(host_.journal_dir,
                                                  fingerprint);
  std::shared_ptr<const PprEngine> engine;
  if (restore && !index_path.empty()) {
    auto loaded = ReadCorpusIndexFile(index_path, fingerprint, dataset.size(),
                                      config.estimator.ppr);
    if (loaded.ok()) {
      Metrics().index_loads.Increment();
      engine = std::make_shared<const PprEngine>(loaded.MoveValueOrDie());
    } else {
      Metrics().index_rebuilds.Increment();
    }
  }
  const bool built = engine == nullptr;
  if (built) {
    ICROWD_ASSIGN_OR_RETURN(PprEngine solved,
                            ICrowd::BuildEngine(dataset, config));
    engine = std::make_shared<const PprEngine>(std::move(solved));
  }
  {
    MutexLock lock(manager_mu_);
    std::erase_if(corpora_, [](const auto& entry) {
      return entry.second.engine.expired();
    });
    CorpusEntry& entry = corpora_[fingerprint];
    // A racing caller published first: share its engine, drop ours.
    if (auto held = shareable(entry)) {
      Metrics().engine_shares.Increment();
      return held;
    }
    entry = CorpusEntry{engine, built};
  }
  // Only the publisher writes, and its engine stays held until the write
  // is done, so one manager never writes an index file twice at once.
  if (built && !index_path.empty()) {
    WriteCorpusIndex(index_path, fingerprint, *engine, host_.fsync_journal);
  }
  return engine;
}

size_t CampaignManager::LiveCorpora() const {
  MutexLock lock(manager_mu_);
  return static_cast<size_t>(
      std::count_if(corpora_.begin(), corpora_.end(), [](const auto& entry) {
        return !entry.second.engine.expired();
      }));
}

void CampaignManager::MaybeCheckpoint(Campaign* campaign) {
  const uint64_t applied = campaign->system->events_applied();
  if (campaign->journal_file == nullptr ||
      applied < campaign->next_checkpoint) {
    return;
  }
  campaign->next_checkpoint =
      (applied / kCheckpointInterval + 1) * kCheckpointInterval;
  const HostMetrics& metrics = Metrics();
  Stopwatch elapsed;
  auto snapshot = campaign->system->Snapshot();
  if (!snapshot.ok()) {
    if (snapshot.status().code() == StatusCode::kUnimplemented) {
      metrics.checkpoints_skipped.Increment();
    } else {
      metrics.checkpoints_failed.Increment();
    }
    return;
  }
  // The group commit just flushed every record the snapshot covers, so the
  // sink's position and CRC describe exactly that journal prefix.
  Checkpoint checkpoint;
  checkpoint.fingerprint = campaign->system->fingerprint();
  checkpoint.events_applied = applied;
  checkpoint.journal_offset = campaign->journal_file->bytes();
  checkpoint.journal_crc = campaign->journal_file->crc();
  checkpoint.snapshot = snapshot.MoveValueOrDie();
  Status written = WriteCheckpointFile(campaign->checkpoint_path, checkpoint,
                                       host_.fsync_journal);
  if (written.ok()) {
    metrics.checkpoints_written.Increment();
  } else {
    metrics.checkpoints_failed.Increment();
  }
  metrics.checkpoint_seconds.Observe(elapsed.ElapsedSeconds());
}

std::vector<CampaignManager::CampaignStats> CampaignManager::Stats() const {
  std::vector<CampaignStats> stats;
  MutexLock lock(manager_mu_);
  stats.reserve(campaigns_.size());
  for (const auto& [id, campaign] : campaigns_) {
    Shard* shard = shards_[campaign->shard_index].get();
    CampaignStats s;
    s.id = id;
    s.name = campaign->name;
    s.shard = campaign->shard_index;
    {
      // manager_mu_ -> shard_mu_ follows tools/lock_order.txt.
      MutexLock shard_lock(shard->shard_mu_);
      s.submitted = campaign->submitted;
      s.settled = campaign->settled;
      s.events_applied = campaign->events_applied;
      s.refused = campaign->refused;
      s.answers = campaign->answers;
      s.workers = campaign->workers;
      s.finished = campaign->finished;
      s.failed = !campaign->failure.ok();
    }
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const CampaignStats& a, const CampaignStats& b) {
              return a.name < b.name;
            });
  return stats;
}

std::string CampaignManager::RenderCampaignMetrics() const {
  const std::vector<CampaignStats> stats = Stats();
  std::ostringstream out;
  out << "# HELP icrowd_host_campaigns hosted campaigns currently live\n"
         "# TYPE icrowd_host_campaigns gauge\n"
         "icrowd_host_campaigns "
      << stats.size() << "\n";
  out << "# HELP icrowd_host_shards configured host shards\n"
         "# TYPE icrowd_host_shards gauge\n"
         "icrowd_host_shards "
      << shards_.size() << "\n";
  // Its companion counter icrowd_host_engine_shares comes from the
  // registry render; repeating it here would duplicate the family.
  out << "# HELP icrowd_host_corpora corpora whose shared PPR engine is "
         "held by a live campaign\n"
         "# TYPE icrowd_host_corpora gauge\n"
         "icrowd_host_corpora "
      << LiveCorpora() << "\n";
  struct Family {
    const char* name;
    const char* type;
    const char* help;
    uint64_t (*value)(const CampaignStats&);
  };
  // One family per ledger column; samples of a family stay contiguous
  // (the exposition-format contract tools/check_prometheus.py enforces).
  static constexpr Family kFamilies[] = {
      {"icrowd_host_campaign_events_submitted", "counter",
       "events accepted for the campaign",
       [](const CampaignStats& s) { return s.submitted; }},
      {"icrowd_host_campaign_events_settled", "counter",
       "events applied or abandoned for the campaign",
       [](const CampaignStats& s) { return s.settled; }},
      {"icrowd_host_campaign_events_applied", "counter",
       "journal stream position of the campaign",
       [](const CampaignStats& s) { return s.events_applied; }},
      {"icrowd_host_campaign_events_refused", "counter",
       "settled events the campaign refused with a per-event error",
       [](const CampaignStats& s) { return s.refused; }},
      {"icrowd_host_campaign_answers", "counter",
       "answers recorded by the campaign",
       [](const CampaignStats& s) { return s.answers; }},
      {"icrowd_host_campaign_workers", "gauge",
       "workers registered with the campaign",
       [](const CampaignStats& s) { return s.workers; }},
      {"icrowd_host_campaign_finished", "gauge",
       "1 once every microtask is completed",
       [](const CampaignStats& s) -> uint64_t { return s.finished ? 1 : 0; }},
      {"icrowd_host_campaign_failed", "gauge",
       "1 once the campaign poisoned",
       [](const CampaignStats& s) -> uint64_t { return s.failed ? 1 : 0; }},
  };
  for (const Family& family : kFamilies) {
    out << "# HELP " << family.name << " " << family.help << "\n";
    out << "# TYPE " << family.name << " " << family.type << "\n";
    for (const CampaignStats& s : stats) {
      out << family.name << "{campaign=\"" << s.name << "\"} "
          << family.value(s) << "\n";
    }
  }
  return out.str();
}

std::string CampaignManager::RenderCampaignStatusz() const {
  const std::vector<CampaignStats> stats = Stats();
  size_t finished = 0;
  size_t failed = 0;
  for (const CampaignStats& s : stats) {
    if (s.finished) ++finished;
    if (s.failed) ++failed;
  }
  std::ostringstream out;
  out << "\n[host]\n";
  out << "campaigns " << stats.size() << "\n";
  out << "campaigns.finished " << finished << "\n";
  out << "campaigns.failed " << failed << "\n";
  out << "shards " << shards_.size() << "\n";
  out << "corpora " << LiveCorpora() << "\n";
  out << "engine_shares " << Metrics().engine_shares.Value() << "\n";
  out << "\n[host.campaigns]\n";
  // Capped: statusz is a glanceable page, /metricsz carries the full set.
  constexpr size_t kMaxLines = 32;
  for (size_t i = 0; i < stats.size() && i < kMaxLines; ++i) {
    const CampaignStats& s = stats[i];
    out << s.name << " shard=" << s.shard << " submitted=" << s.submitted
        << " settled=" << s.settled << " applied=" << s.events_applied
        << " refused=" << s.refused
        << " workers=" << s.workers << " answers=" << s.answers
        << " state=" << (s.failed ? "failed"
                                  : (s.finished ? "finished" : "running"))
        << "\n";
  }
  if (stats.size() > kMaxLines) {
    out << "... and " << (stats.size() - kMaxLines) << " more campaigns\n";
  }
  return out.str();
}

}  // namespace icrowd
