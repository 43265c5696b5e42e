#ifndef ICROWD_JOURNAL_JOURNAL_H_
#define ICROWD_JOURNAL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/microtask.h"

namespace icrowd {

namespace obs {
class Heartbeat;
}  // namespace obs

/// Write-ahead event journal for durable campaigns (DESIGN.md §11). The
/// ICrowd facade appends one record per mutating platform callback *before*
/// touching canonical state; recovery is snapshot + tail-replay of these
/// records through the normal pipeline, and the determinism contract makes
/// the replayed campaign bit-identical to the uninterrupted one.

/// On-the-wire format version of journal payloads and snapshots.
inline constexpr uint32_t kJournalFormatVersion = 1;

enum class JournalEventType : uint8_t {
  /// First record of a fresh journal: format version + campaign fingerprint
  /// (hash of dataset + config), so replaying against the wrong campaign
  /// fails fast instead of diverging.
  kCampaignBegin = 1,
  kWorkerArrived = 2,
  kTaskRequested = 3,
  kAnswerSubmitted = 4,
  kWorkerLeft = 5,
  kClockTick = 6,
};

/// One journal record. Field use by type:
///   kCampaignBegin:  format_version, fingerprint
///   kWorkerArrived:  worker (the id handed out)
///   kClockTick:      time (the §4.1 activity timestamp of the request that
///                    immediately follows; a tick with no following request
///                    is an un-acked request and is dropped on replay)
///   kTaskRequested:  worker, task (kNoTaskServed when nothing assignable —
///                    the decision outcome, re-derived and verified on
///                    replay)
///   kAnswerSubmitted: worker, task, answer, time
///   kWorkerLeft:     worker
struct JournalEvent {
  JournalEventType type = JournalEventType::kClockTick;
  uint32_t format_version = 0;
  uint64_t fingerprint = 0;
  WorkerId worker = -1;
  TaskId task = -1;
  Label answer = kNoLabel;
  double time = 0.0;
};

/// `task` value journaled when a TaskRequested decision served nothing.
inline constexpr TaskId kNoTaskServed = -1;

/// Encodes one event as a frame payload (framing/CRC added by the writer).
std::vector<uint8_t> EncodeJournalEvent(const JournalEvent& event);
Result<JournalEvent> DecodeJournalEvent(const uint8_t* data, size_t size);

/// Byte-stream destination for framed journal records. Append must either
/// persist all `size` bytes or persist a prefix and fail — exactly what a
/// dying disk/process does, and what the torn-tail scanner recovers from.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual Status Append(const uint8_t* data, size_t size) = 0;
  /// Durability point: flush buffered bytes to the backing store.
  virtual Status Flush() = 0;
};

/// In-memory sink (tests, benches, and the inner capture target of
/// FaultInjectingSink).
class VectorSink : public JournalSink {
 public:
  Status Append(const uint8_t* data, size_t size) override;
  Status Flush() override { return Status::OK(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Appends to a file via stdio. Flush() fflushes and, when configured,
/// fsyncs so an acknowledged answer survives power loss, not just a crash.
class FileSink : public JournalSink {
 public:
  struct Options {
    bool fsync_on_flush = false;
  };

  /// `truncate` starts a fresh journal; false continues an existing one.
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path,
                                                bool truncate,
                                                Options options);
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path,
                                                bool truncate) {
    return Open(path, truncate, Options{});
  }
  ~FileSink() override;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  Status Append(const uint8_t* data, size_t size) override;
  Status Flush() override;

 private:
  FileSink(std::FILE* file, Options options)
      : file_(file), options_(options) {}

  std::FILE* file_;
  Options options_;
};

/// Fault-injection wrapper: forwards bytes to `inner` until a configured
/// byte budget is exhausted, then persists only the prefix of the failing
/// write that still fits and errors — producing exactly the torn tail a
/// mid-append crash leaves behind. Once tripped, every further append
/// fails without writing.
class FaultInjectingSink : public JournalSink {
 public:
  FaultInjectingSink(std::shared_ptr<JournalSink> inner,
                     size_t fail_after_bytes)
      : inner_(std::move(inner)), budget_(fail_after_bytes) {}

  Status Append(const uint8_t* data, size_t size) override;
  Status Flush() override;

  bool tripped() const { return tripped_; }
  size_t bytes_written() const { return written_; }

 private:
  std::shared_ptr<JournalSink> inner_;
  size_t budget_;
  size_t written_ = 0;
  bool tripped_ = false;
};

/// Frames events and appends them to a sink, tracking counts for the
/// journal-overhead metrics.
///
/// Threading contract: deliberately lock-free because it is single-writer
/// by construction — only the campaign's apply stage (its host shard
/// thread, or the owner thread on the unbatched path) ever appends, and
/// the accessors are only meaningful between batches (after a Drain),
/// the same quiescent points at which reading the campaign is allowed.
/// Adding a mutex here would serialize nothing and hide misuse from TSan.
class JournalWriter {
 public:
  explicit JournalWriter(std::shared_ptr<JournalSink> sink);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  Status Append(const JournalEvent& event);
  Status Flush();

  [[nodiscard]] uint64_t events_written() const { return events_; }
  [[nodiscard]] uint64_t bytes_written() const { return bytes_; }
  /// Flush (durability point) count: how batched ingestion's group commit
  /// shows up — per-event execution flushes once per answer, batched once
  /// per batch, for identical journal bytes.
  [[nodiscard]] uint64_t flushes() const { return flushes_; }

 private:
  std::shared_ptr<JournalSink> sink_;
  uint64_t events_ = 0;
  uint64_t bytes_ = 0;
  uint64_t flushes_ = 0;
  /// Heartbeat for the single writer thread: busy only inside
  /// sink_->Flush(), so a wedged fsync (hung disk, full volume) shows up
  /// as a stalled-busy "journal.flush" heartbeat. Plain pointer — same
  /// single-writer contract as every other member.
  obs::Heartbeat* heartbeat_ = nullptr;
};

struct JournalParse {
  std::vector<JournalEvent> events;
  /// Bytes covered by intact frames (the safe truncation point).
  size_t valid_bytes = 0;
  /// Torn/corrupt tail bytes the scanner dropped.
  size_t dropped_bytes = 0;
  /// Frame size (header + payload) of the last intact record; 0 if none.
  size_t last_record_bytes = 0;
};

/// Decodes a journal byte stream. A torn or corrupt tail is expected (the
/// crash case) and reported via dropped_bytes, not an error. Damage followed
/// by an intact record is mid-log corruption and returns DataLoss: cutting
/// there would drop acknowledged records. A CRC-valid frame that fails to
/// decode means a foreign or future-format journal and is an error.
Result<JournalParse> ReadJournal(const std::vector<uint8_t>& bytes);

/// One-line JSON rendering of a record, for the JSONL debug dump.
std::string JournalEventToJson(const JournalEvent& event);

/// Human-debuggable dump: one JSON object per event, then one summary line
/// with the scanner's byte accounting.
std::string JournalToJsonl(const JournalParse& parse);

/// Reads a journal file and writes its JSONL dump (the artifact CI uploads
/// when a crash-recovery test fails).
Status DumpJournalJsonl(const std::string& journal_path,
                        const std::string& jsonl_path);

/// Whole-file helpers shared by the CLI's --journal/--resume path and the
/// recovery tests.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);
Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes);

}  // namespace icrowd

#endif  // ICROWD_JOURNAL_JOURNAL_H_
