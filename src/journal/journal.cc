#include "journal/journal.h"

#include <string>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "io/framing.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define ICROWD_JOURNAL_HAS_FSYNC 1
#endif

namespace icrowd {
namespace {

// Journal counters describe the *process's* journaling activity (a live run
// appends, a replay does not), so they are operational metrics, excluded
// from deterministic dumps.
const obs::Counter& AppendCounter() {
  static const obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "icrowd.journal.appends", {false, "journal records appended"});
  return counter;
}

const obs::Counter& AppendBytesCounter() {
  static const obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "icrowd.journal.append_bytes",
      {false, "framed journal bytes handed to sinks"});
  return counter;
}

const obs::Counter& FlushCounter() {
  static const obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "icrowd.journal.flushes", {false, "journal sink flushes"});
  return counter;
}

const obs::Counter& FsyncCounter() {
  static const obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "icrowd.journal.fsyncs", {false, "fsyncs issued by FileSink::Flush"});
  return counter;
}

const obs::Counter& TornBytesCounter() {
  static const obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "icrowd.journal.torn_bytes_dropped",
      {false, "torn/corrupt tail bytes dropped by the journal scanner"});
  return counter;
}

const obs::Histogram& FlushSecondsHistogram() {
  static const obs::Histogram histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "icrowd.journal.flush_seconds",
          obs::ExponentialBuckets(1e-6, 4, 12),
          {false, "sink flush (durability point) duration per group commit"});
  return histogram;
}

}  // namespace

std::vector<uint8_t> EncodeJournalEvent(const JournalEvent& event) {
  BinaryWriter w;
  w.U8(static_cast<uint8_t>(event.type));
  switch (event.type) {
    case JournalEventType::kCampaignBegin:
      w.U32(event.format_version);
      w.U64(event.fingerprint);
      break;
    case JournalEventType::kWorkerArrived:
    case JournalEventType::kWorkerLeft:
      w.I32(event.worker);
      break;
    case JournalEventType::kTaskRequested:
      w.I32(event.worker);
      w.I32(event.task);
      break;
    case JournalEventType::kAnswerSubmitted:
      w.I32(event.worker);
      w.I32(event.task);
      w.I32(event.answer);
      w.F64(event.time);
      break;
    case JournalEventType::kClockTick:
      w.F64(event.time);
      break;
  }
  return w.Release();
}

Result<JournalEvent> DecodeJournalEvent(const uint8_t* data, size_t size) {
  BinaryReader r(data, size);
  JournalEvent event;
  uint8_t raw_type = r.U8();
  switch (raw_type) {
    case static_cast<uint8_t>(JournalEventType::kCampaignBegin):
      event.type = JournalEventType::kCampaignBegin;
      event.format_version = r.U32();
      event.fingerprint = r.U64();
      break;
    case static_cast<uint8_t>(JournalEventType::kWorkerArrived):
      event.type = JournalEventType::kWorkerArrived;
      event.worker = r.I32();
      break;
    case static_cast<uint8_t>(JournalEventType::kWorkerLeft):
      event.type = JournalEventType::kWorkerLeft;
      event.worker = r.I32();
      break;
    case static_cast<uint8_t>(JournalEventType::kTaskRequested):
      event.type = JournalEventType::kTaskRequested;
      event.worker = r.I32();
      event.task = r.I32();
      break;
    case static_cast<uint8_t>(JournalEventType::kAnswerSubmitted):
      event.type = JournalEventType::kAnswerSubmitted;
      event.worker = r.I32();
      event.task = r.I32();
      event.answer = r.I32();
      event.time = r.F64();
      break;
    case static_cast<uint8_t>(JournalEventType::kClockTick):
      event.type = JournalEventType::kClockTick;
      event.time = r.F64();
      break;
    default:
      return Status::InvalidArgument("unknown journal event type " +
                                     std::to_string(raw_type));
  }
  ICROWD_RETURN_NOT_OK(r.status());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in journal event payload");
  }
  return event;
}

// ------------------------------------------------------------------ sinks --

Status VectorSink::Append(const uint8_t* data, size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
  return Status::OK();
}

Result<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path,
                                                 bool truncate,
                                                 Options options) {
  std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file == nullptr) {
    return Status::NotFound("cannot open journal file " + path);
  }
  return std::unique_ptr<FileSink>(new FileSink(file, options));
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileSink::Append(const uint8_t* data, size_t size) {
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::Internal("journal file write failed");
  }
  return Status::OK();
}

Status FileSink::Flush() {
  if (std::fflush(file_) != 0) {
    return Status::Internal("journal file flush failed");
  }
  if (options_.fsync_on_flush) {
#ifdef ICROWD_JOURNAL_HAS_FSYNC
    if (fsync(fileno(file_)) != 0) {
      return Status::Internal("journal file fsync failed");
    }
    FsyncCounter().Increment();
#endif
  }
  return Status::OK();
}

Status FaultInjectingSink::Append(const uint8_t* data, size_t size) {
  if (tripped_) {
    return Status::Internal("journal sink already failed");
  }
  size_t room = budget_ - written_;
  if (size > room) {
    // A mid-append death persists only the prefix that reached the store.
    tripped_ = true;
    if (room > 0) {
      ICROWD_RETURN_NOT_OK(inner_->Append(data, room));
      written_ += room;
    }
    return Status::Internal("injected journal fault after " +
                            std::to_string(written_) + " bytes");
  }
  ICROWD_RETURN_NOT_OK(inner_->Append(data, size));
  written_ += size;
  return Status::OK();
}

Status FaultInjectingSink::Flush() {
  if (tripped_) {
    return Status::Internal("journal sink already failed");
  }
  return inner_->Flush();
}

// ----------------------------------------------------------------- writer --

JournalWriter::JournalWriter(std::shared_ptr<JournalSink> sink)
    : sink_(std::move(sink)),
      heartbeat_(obs::HeartbeatRegistry::Global().Register("journal.flush")) {
}

JournalWriter::~JournalWriter() {
  obs::HeartbeatRegistry::Global().Unregister(heartbeat_);
}

Status JournalWriter::Append(const JournalEvent& event) {
  std::vector<uint8_t> payload = EncodeJournalEvent(event);
  std::vector<uint8_t> frame;
  AppendFrame(payload.data(), payload.size(), &frame);
  ICROWD_RETURN_NOT_OK(sink_->Append(frame.data(), frame.size()));
  ++events_;
  bytes_ += frame.size();
  AppendCounter().Increment();
  AppendBytesCounter().Increment(frame.size());
  return Status::OK();
}

Status JournalWriter::Flush() {
  ++flushes_;
  FlushCounter().Increment();
  // Busy exactly for the sink flush (the stage that can wedge on a hung
  // disk); timed for the per-stage latency attribution.
  heartbeat_->MarkBusy();
  Stopwatch flush_time;
  Status flushed = sink_->Flush();
  FlushSecondsHistogram().Observe(flush_time.ElapsedSeconds());
  heartbeat_->MarkIdle();
  return flushed;
}

// ----------------------------------------------------------------- reader --

Result<JournalParse> ReadJournal(const std::vector<uint8_t>& bytes) {
  FrameScan scan = ScanFrames(bytes.data(), bytes.size());
  if (scan.intact_frame_after_damage != 0) {
    return Status::DataLoss(
        "journal is damaged at byte " + std::to_string(scan.valid_bytes) +
        " but has an intact record at byte " +
        std::to_string(scan.intact_frame_after_damage) +
        ": mid-log corruption, not a torn tail");
  }
  JournalParse parse;
  parse.valid_bytes = scan.valid_bytes;
  parse.dropped_bytes = scan.dropped_bytes;
  if (scan.dropped_bytes > 0) {
    TornBytesCounter().Increment(scan.dropped_bytes);
  }
  parse.events.reserve(scan.frames.size());
  for (const auto& [offset, length] : scan.frames) {
    auto event = DecodeJournalEvent(bytes.data() + offset, length);
    if (!event.ok()) return event.status();
    parse.events.push_back(*event);
    parse.last_record_bytes = kFrameHeaderBytes + length;
  }
  return parse;
}

// ------------------------------------------------------------- JSONL dump --

std::string JournalEventToJson(const JournalEvent& event) {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  switch (event.type) {
    case JournalEventType::kCampaignBegin:
      return "{\"type\":\"campaign_begin\",\"format_version\":" +
             std::to_string(event.format_version) +
             ",\"fingerprint\":" + std::to_string(event.fingerprint) + "}";
    case JournalEventType::kWorkerArrived:
      return "{\"type\":\"worker_arrived\",\"worker\":" +
             std::to_string(event.worker) + "}";
    case JournalEventType::kWorkerLeft:
      return "{\"type\":\"worker_left\",\"worker\":" +
             std::to_string(event.worker) + "}";
    case JournalEventType::kTaskRequested:
      return "{\"type\":\"task_requested\",\"worker\":" +
             std::to_string(event.worker) +
             ",\"task\":" + std::to_string(event.task) + "}";
    case JournalEventType::kAnswerSubmitted:
      return "{\"type\":\"answer_submitted\",\"worker\":" +
             std::to_string(event.worker) +
             ",\"task\":" + std::to_string(event.task) +
             ",\"answer\":" + std::to_string(event.answer) +
             ",\"time\":" + num(event.time) + "}";
    case JournalEventType::kClockTick:
      return "{\"type\":\"clock_tick\",\"time\":" + num(event.time) + "}";
  }
  return "{\"type\":\"unknown\"}";
}

std::string JournalToJsonl(const JournalParse& parse) {
  std::string out;
  for (const JournalEvent& event : parse.events) {
    out += JournalEventToJson(event);
    out += '\n';
  }
  out += "{\"type\":\"scan_summary\",\"events\":" +
         std::to_string(parse.events.size()) +
         ",\"valid_bytes\":" + std::to_string(parse.valid_bytes) +
         ",\"dropped_bytes\":" + std::to_string(parse.dropped_bytes) + "}\n";
  return out;
}

Status DumpJournalJsonl(const std::string& journal_path,
                        const std::string& jsonl_path) {
  auto bytes = ReadFileBytes(journal_path);
  if (!bytes.ok()) return bytes.status();
  auto parse = ReadJournal(*bytes);
  if (!parse.ok()) return parse.status();
  std::string jsonl = JournalToJsonl(*parse);
  std::vector<uint8_t> out(jsonl.begin(), jsonl.end());
  return WriteFileBytes(jsonl_path, out);
}

// ----------------------------------------------------------- file helpers --

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open file " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::Internal("read failed for " + path);
  return bytes;
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::NotFound("cannot open file " + path + " for writing");
  }
  size_t written = bytes.empty()
                       ? 0
                       : std::fwrite(bytes.data(), 1, bytes.size(), file);
  bool failed = written != bytes.size() || std::fclose(file) != 0;
  if (failed) return Status::Internal("write failed for " + path);
  return Status::OK();
}

}  // namespace icrowd
