// Unit tests for the write-ahead journal layer (DESIGN.md §11): CRC-32,
// frame scanning, torn-tail truncation versus mid-log corruption, framed
// streams, the event codec and a seeded mutation fuzz of the record
// decoder, the sink implementations (vector, file, fault-injecting) and the
// JSONL debug dump.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/random.h"
#include "io/crc32.h"
#include "io/framing.h"
#include "journal/journal.h"

namespace icrowd {
namespace {

// ---------------------------------------------------------------- CRC-32 --

TEST(Crc32Test, StandardTestVector) {
  // The check value of the IEEE 802.3 parameterization.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

/// The textbook bit-serial CRC-32, which the table-sliced loop must match.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length from empty through many 8-byte steps plus a tail, at each
  // start offset within a word.
  const std::vector<uint8_t> data = RandomBytes(8 + 300, 3);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(Crc32(data.data() + start, n),
                ReferenceCrc32(data.data() + start, n))
          << "start " << start << " length " << n;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnOneMebibyte) {
  const std::vector<uint8_t> data = RandomBytes(size_t{1} << 20, 5);
  EXPECT_EQ(Crc32(data.data(), data.size()),
            ReferenceCrc32(data.data(), data.size()));
}

TEST(Crc32Test, UpdateSplitAtEveryOffsetMatchesReference) {
  // The sliced body of one call and the per-byte tail of the previous one
  // meet at every possible boundary.
  const std::vector<uint8_t> data = RandomBytes(1024, 9);
  const uint32_t expected = ReferenceCrc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t state = Crc32Update(Crc32Begin(), data.data(), split);
    state = Crc32Update(state, data.data() + split, data.size() - split);
    ASSERT_EQ(Crc32Finish(state), expected) << "split " << split;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t state = Crc32Begin();
  state = Crc32Update(state, data.data(), 10);
  state = Crc32Update(state, data.data() + 10, data.size() - 10);
  EXPECT_EQ(Crc32Finish(state), Crc32(data.data(), data.size()));
}

// --------------------------------------------------------------- framing --

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(FramingTest, RoundTripMultipleFrames) {
  std::vector<uint8_t> stream;
  std::vector<std::string> payloads = {"alpha", "", "b", "gamma-delta"};
  for (const std::string& p : payloads) {
    std::vector<uint8_t> bytes = Bytes(p);
    AppendFrame(bytes.data(), bytes.size(), &stream);
  }
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  ASSERT_EQ(scan.frames.size(), payloads.size());
  EXPECT_EQ(scan.valid_bytes, stream.size());
  EXPECT_EQ(scan.dropped_bytes, 0u);
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto [offset, length] = scan.frames[i];
    EXPECT_EQ(std::string(stream.begin() + static_cast<long>(offset),
                          stream.begin() + static_cast<long>(offset + length)),
              payloads[i]);
  }
}

TEST(FramingTest, TruncatedHeaderIsDropped) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> payload = Bytes("intact");
  AppendFrame(payload.data(), payload.size(), &stream);
  size_t intact = stream.size();
  // A torn append: only 3 bytes of the next frame's header made it out.
  stream.insert(stream.end(), {0x05, 0x00, 0x00});
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.dropped_bytes, 3u);
}

TEST(FramingTest, TruncatedPayloadIsDropped) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> first = Bytes("intact");
  AppendFrame(first.data(), first.size(), &stream);
  size_t intact = stream.size();
  std::vector<uint8_t> second = Bytes("this frame is cut short");
  AppendFrame(second.data(), second.size(), &stream);
  stream.resize(intact + kFrameHeaderBytes + 4);  // mid-payload
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_EQ(scan.dropped_bytes, kFrameHeaderBytes + 4);
}

TEST(FramingTest, CorruptPayloadFailsChecksum) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> first = Bytes("intact");
  AppendFrame(first.data(), first.size(), &stream);
  size_t intact = stream.size();
  std::vector<uint8_t> second = Bytes("to be corrupted");
  AppendFrame(second.data(), second.size(), &stream);
  stream[intact + kFrameHeaderBytes] ^= 0xFF;  // flip a payload byte
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, intact);
}

TEST(FramingTest, OversizedLengthIsCorruption) {
  // A length word above kMaxFramePayload must not be followed into garbage.
  std::vector<uint8_t> stream = {0xFF, 0xFF, 0xFF, 0xFF,
                                 0x00, 0x00, 0x00, 0x00};
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.dropped_bytes, stream.size());
}

TEST(FramingTest, TornTailHasNoIntactFrameAfterIt) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> payload = Bytes("intact");
  AppendFrame(payload.data(), payload.size(), &stream);
  // A torn record whose payload holds eight zero bytes: an empty frame
  // would pass its checksum, so the search past the damage skips them.
  std::vector<uint8_t> zeros(24, 0);
  std::vector<uint8_t> torn;
  AppendFrame(zeros.data(), zeros.size(), &torn);
  stream.insert(stream.end(), torn.begin(), torn.end() - 3);
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  EXPECT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.intact_frame_after_damage, 0u);
}

TEST(FramingTest, DamageBeforeAnIntactFrameIsReported) {
  std::vector<uint8_t> stream;
  for (const char* p : {"first", "second", "third"}) {
    std::vector<uint8_t> bytes = Bytes(p);
    AppendFrame(bytes.data(), bytes.size(), &stream);
  }
  const size_t second = kFrameHeaderBytes + 5;
  const size_t third = second + kFrameHeaderBytes + 6;
  stream[second + kFrameHeaderBytes] ^= 0x01;
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  EXPECT_EQ(scan.valid_bytes, second);
  EXPECT_EQ(scan.intact_frame_after_damage, third);
}

TEST(FramingTest, SearchPastDamageStaysLinearOnGarbage) {
  // 4 MiB of noise: a search that followed every plausible length word
  // would checksum gigabytes; the bounded one finishes at once.
  Rng rng(7);
  std::vector<uint8_t> noise(size_t{4} << 20);
  for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  FrameScan scan = ScanFrames(noise.data(), noise.size());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.intact_frame_after_damage, 0u);
}

// --------------------------------------------------------- framed stream --

std::vector<uint8_t> WriteStream(const std::vector<std::vector<uint8_t>>& writes,
                                 size_t frame_bytes) {
  std::vector<uint8_t> out;
  FrameStreamWriter writer(
      [&out](const uint8_t* data, size_t size) {
        out.insert(out.end(), data, data + size);
        return Status::OK();
      },
      frame_bytes);
  for (const auto& w : writes) EXPECT_TRUE(writer.Write(w.data(), w.size()).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out;
}

TEST(FrameStreamTest, RoundTripsAcrossFrameBoundaries) {
  std::vector<std::vector<uint8_t>> writes = {
      Bytes("header"), std::vector<uint8_t>(100, 7), Bytes("x"),
      std::vector<uint8_t>(70000, 9),
      Bytes("tail")};
  std::vector<uint8_t> logical;
  for (const auto& w : writes) logical.insert(logical.end(), w.begin(), w.end());
  const size_t frame_bytes = 4096;
  std::vector<uint8_t> stream = WriteStream(writes, frame_bytes);
  FrameScan scan = ScanFrames(stream.data(), stream.size());
  EXPECT_EQ(scan.valid_bytes, stream.size());
  for (const auto& [offset, length] : scan.frames) {
    EXPECT_GT(length, 0u);
    EXPECT_LE(length, frame_bytes);
  }
  // Read back in pieces that straddle frames and cover whole ones.
  FrameStreamReader reader(MemorySource(stream.data(), stream.size()),
                           stream.size(), frame_bytes);
  std::vector<uint8_t> back(logical.size());
  size_t done = 0;
  for (size_t piece : {size_t{3}, size_t{5000}, size_t{1}, size_t{70000}}) {
    size_t n = std::min(piece, back.size() - done);
    ASSERT_TRUE(reader.Read(back.data() + done, n).ok());
    done += n;
  }
  ASSERT_TRUE(reader.Read(back.data() + done, back.size() - done).ok());
  EXPECT_EQ(back, logical);
  EXPECT_TRUE(reader.ExpectEnd().ok());
  uint8_t extra = 0;
  EXPECT_EQ(reader.Read(&extra, 1).code(), StatusCode::kDataLoss);
}

TEST(FrameStreamTest, DamagedStreamsAreDataLoss) {
  std::vector<uint8_t> stream =
      WriteStream({std::vector<uint8_t>(300, 1)}, /*frame_bytes=*/128);
  auto read_all = [](const std::vector<uint8_t>& bytes) {
    FrameStreamReader reader(MemorySource(bytes.data(), bytes.size()),
                             bytes.size(), 128);
    std::vector<uint8_t> out(300);
    Status read = reader.Read(out.data(), out.size());
    return read.ok() ? reader.ExpectEnd() : read;
  };
  EXPECT_TRUE(read_all(stream).ok());
  std::vector<uint8_t> flipped = stream;
  flipped[kFrameHeaderBytes + 128 + kFrameHeaderBytes + 2] ^= 0x10;
  EXPECT_EQ(read_all(flipped).code(), StatusCode::kDataLoss);
  std::vector<uint8_t> truncated(stream.begin(), stream.end() - 1);
  EXPECT_EQ(read_all(truncated).code(), StatusCode::kDataLoss);
  std::vector<uint8_t> trailing = stream;
  trailing.push_back(0);
  EXPECT_EQ(read_all(trailing).code(), StatusCode::kDataLoss);
  std::vector<uint8_t> oversized = stream;
  oversized[1] = 0x01;  // length 256 > the 128-byte frame cap
  EXPECT_EQ(read_all(oversized).code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------------- event codec --

TEST(JournalEventTest, CodecRoundTripsEveryEventType) {
  std::vector<JournalEvent> events;
  JournalEvent begin;
  begin.type = JournalEventType::kCampaignBegin;
  begin.format_version = kJournalFormatVersion;
  begin.fingerprint = 0x0123456789ABCDEFull;
  events.push_back(begin);
  JournalEvent arrived;
  arrived.type = JournalEventType::kWorkerArrived;
  arrived.worker = 7;
  events.push_back(arrived);
  JournalEvent tick;
  tick.type = JournalEventType::kClockTick;
  tick.time = 41.25;
  events.push_back(tick);
  JournalEvent request;
  request.type = JournalEventType::kTaskRequested;
  request.worker = 7;
  request.task = kNoTaskServed;
  events.push_back(request);
  JournalEvent answer;
  answer.type = JournalEventType::kAnswerSubmitted;
  answer.worker = 7;
  answer.task = 3;
  answer.answer = kYes;
  answer.time = 42.5;
  events.push_back(answer);
  JournalEvent left;
  left.type = JournalEventType::kWorkerLeft;
  left.worker = 7;
  events.push_back(left);

  for (const JournalEvent& event : events) {
    std::vector<uint8_t> encoded = EncodeJournalEvent(event);
    auto decoded = DecodeJournalEvent(encoded.data(), encoded.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, event.type);
    EXPECT_EQ(decoded->format_version, event.format_version);
    EXPECT_EQ(decoded->fingerprint, event.fingerprint);
    EXPECT_EQ(decoded->worker, event.worker);
    EXPECT_EQ(decoded->task, event.task);
    EXPECT_EQ(decoded->answer, event.answer);
    EXPECT_EQ(decoded->time, event.time);
  }
}

TEST(JournalEventTest, DecodeRejectsEmptyPayload) {
  EXPECT_FALSE(DecodeJournalEvent(nullptr, 0).ok());
}

// ------------------------------------------------------ writer and sinks --

JournalEvent AnswerEvent(WorkerId worker, TaskId task) {
  JournalEvent event;
  event.type = JournalEventType::kAnswerSubmitted;
  event.worker = worker;
  event.task = task;
  event.answer = kNo;
  event.time = static_cast<double>(worker + task);
  return event;
}

TEST(JournalWriterTest, WriteThenReadBack) {
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append(AnswerEvent(i, i * 2)).ok());
  }
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(writer.events_written(), 10u);
  EXPECT_EQ(writer.bytes_written(), sink->bytes().size());

  auto parsed = ReadJournal(sink->bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), 10u);
  EXPECT_EQ(parsed->dropped_bytes, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(parsed->events[static_cast<size_t>(i)].worker, i);
    EXPECT_EQ(parsed->events[static_cast<size_t>(i)].task, i * 2);
  }
}

TEST(JournalWriterTest, ReadJournalDropsTornTail) {
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Append(AnswerEvent(i, i)).ok());
  }
  std::vector<uint8_t> torn = sink->bytes();
  torn.resize(torn.size() - 5);
  auto parsed = ReadJournal(torn);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->events.size(), 4u);
  EXPECT_GT(parsed->dropped_bytes, 0u);
}

TEST(JournalWriterTest, ReadJournalRefusesMidLogCorruption) {
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Append(AnswerEvent(i, i)).ok());
  }
  std::vector<uint8_t> damaged = sink->bytes();
  damaged[damaged.size() / 2] ^= 0x40;
  auto parsed = ReadJournal(damaged);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------ record decoder fuzz --
//
// Seeded mutations of a recorded journal. Framing-level damage (byte
// flips, truncations, length-word edits) must read back as DataLoss or as
// a torn tail whose events are a prefix of the recording. Payload edits
// re-framed with valid CRCs reach DecodeJournalEvent itself: it must
// refuse them with a Status or decode a record that re-encodes to exactly
// the mutated bytes. CI runs these under ASan and UBSan.

constexpr int kJournalFuzzCases = 500;

std::vector<uint8_t> RecordedJournal(std::vector<JournalEvent>* events) {
  JournalEvent begin;
  begin.type = JournalEventType::kCampaignBegin;
  begin.format_version = kJournalFormatVersion;
  begin.fingerprint = 0xFEEDFACECAFEBEEFull;
  events->push_back(begin);
  for (int i = 0; i < 8; ++i) {
    JournalEvent arrived;
    arrived.type = JournalEventType::kWorkerArrived;
    arrived.worker = i;
    events->push_back(arrived);
    JournalEvent tick;
    tick.type = JournalEventType::kClockTick;
    tick.time = 10.0 * i + 0.5;
    events->push_back(tick);
    JournalEvent request;
    request.type = JournalEventType::kTaskRequested;
    request.worker = i;
    request.task = i % 3 == 0 ? kNoTaskServed : i;
    events->push_back(request);
    events->push_back(AnswerEvent(i, i));
    JournalEvent left;
    left.type = JournalEventType::kWorkerLeft;
    left.worker = i;
    events->push_back(left);
  }
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  for (const JournalEvent& event : *events) {
    EXPECT_TRUE(writer.Append(event).ok());
  }
  EXPECT_TRUE(writer.Flush().ok());
  return sink->bytes();
}

size_t PickIndex(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
}

/// One framing-level mutation: a byte flip, a truncation, or an edit of
/// some frame's length word.
std::vector<uint8_t> MutateJournalFrames(const std::vector<uint8_t>& journal,
                                         Rng* rng) {
  std::vector<uint8_t> out = journal;
  switch (rng->UniformInt(0, 2)) {
    case 0:
      out[PickIndex(rng, out.size())] ^=
          static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
      break;
    case 1:
      out.resize(PickIndex(rng, out.size()));
      break;
    default: {
      const FrameScan scan = ScanFrames(journal.data(), journal.size());
      const size_t header =
          scan.frames[PickIndex(rng, scan.frames.size())].first -
          kFrameHeaderBytes;
      uint32_t old_length = 0;
      for (size_t b = 0; b < 4; ++b) {
        old_length |= static_cast<uint32_t>(out[header + b]) << (8 * b);
      }
      const uint32_t edits[] = {0u, old_length + 1, old_length - 1,
                                0xFFFFFFFFu, kMaxFramePayload + 1,
                                static_cast<uint32_t>(rng->UniformInt(1, 64))};
      uint32_t length = edits[PickIndex(rng, 6)];
      if (length == old_length) length ^= 0x100;
      for (size_t b = 0; b < 4; ++b) {
        out[header + b] = static_cast<uint8_t>(length >> (8 * b));
      }
      break;
    }
  }
  return out;
}

/// One payload-level mutation: overwrite a byte (the type byte included),
/// cut the payload short, or extend it with trailing bytes.
std::vector<uint8_t> MutatePayload(const std::vector<uint8_t>& payload,
                                   Rng* rng) {
  std::vector<uint8_t> out = payload;
  switch (rng->UniformInt(0, 2)) {
    case 0:
      out[PickIndex(rng, out.size())] =
          static_cast<uint8_t>(rng->UniformInt(0, 255));
      break;
    case 1:
      out.resize(PickIndex(rng, out.size()));
      break;
    default:
      out.resize(out.size() + static_cast<size_t>(rng->UniformInt(1, 16)),
                 static_cast<uint8_t>(rng->UniformInt(0, 255)));
      break;
  }
  return out;
}

bool SameEvent(const JournalEvent& a, const JournalEvent& b) {
  return EncodeJournalEvent(a) == EncodeJournalEvent(b);
}

TEST(JournalFuzzTest, FramingDamageIsDataLossOrATornTail) {
  std::vector<JournalEvent> events;
  const std::vector<uint8_t> journal = RecordedJournal(&events);
  Rng rng(20261020);
  for (int i = 0; i < kJournalFuzzCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const std::vector<uint8_t> mutated = MutateJournalFrames(journal, &rng);
    auto parsed = ReadJournal(mutated);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
      continue;
    }
    // Every mutation breaks or cuts some frame, so a clean read is a torn
    // (or cut) tail: fewer events, all of them the recording's own, in
    // order.
    EXPECT_EQ(parsed->valid_bytes + parsed->dropped_bytes, mutated.size());
    ASSERT_LT(parsed->events.size(), events.size());
    for (size_t e = 0; e < parsed->events.size(); ++e) {
      EXPECT_TRUE(SameEvent(parsed->events[e], events[e])) << "event " << e;
    }
  }
}

TEST(JournalFuzzTest, DecoderRefusesOrRoundTripsHostilePayloads) {
  std::vector<JournalEvent> events;
  const std::vector<uint8_t> journal = RecordedJournal(&events);
  const FrameScan scan = ScanFrames(journal.data(), journal.size());
  ASSERT_EQ(scan.frames.size(), events.size());
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& [offset, length] : scan.frames) {
    payloads.emplace_back(journal.begin() + static_cast<long>(offset),
                          journal.begin() + static_cast<long>(offset + length));
  }
  Rng rng(61);
  for (int i = 0; i < kJournalFuzzCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const size_t target = PickIndex(&rng, payloads.size());
    const std::vector<uint8_t> payload = MutatePayload(payloads[target], &rng);
    auto decoded = DecodeJournalEvent(payload.data(), payload.size());
    if (decoded.ok()) {
      EXPECT_EQ(EncodeJournalEvent(*decoded), payload);
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }

    // The same payload inside a CRC-valid journal: ReadJournal passes the
    // decoder's verdict through.
    std::vector<uint8_t> reframed;
    for (size_t f = 0; f < payloads.size(); ++f) {
      const std::vector<uint8_t>& bytes = f == target ? payload : payloads[f];
      AppendFrame(bytes.data(), bytes.size(), &reframed);
    }
    auto parsed = ReadJournal(reframed);
    ASSERT_EQ(parsed.ok(), decoded.ok());
    if (parsed.ok()) {
      ASSERT_EQ(parsed->events.size(), events.size());
      EXPECT_TRUE(SameEvent(parsed->events[target], *decoded));
    }
  }
}

TEST(FileSinkTest, AppendModeContinuesExistingJournal) {
  std::string path = ::testing::TempDir() + "/icrowd_journal_test.journal";
  {
    auto sink = FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    JournalWriter writer(
        std::shared_ptr<JournalSink>(sink.MoveValueOrDie()));
    ASSERT_TRUE(writer.Append(AnswerEvent(1, 1)).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  {
    auto sink = FileSink::Open(path, /*truncate=*/false);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    JournalWriter writer(
        std::shared_ptr<JournalSink>(sink.MoveValueOrDie()));
    ASSERT_TRUE(writer.Append(AnswerEvent(2, 2)).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ReadJournal(*bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].worker, 1);
  EXPECT_EQ(parsed->events[1].worker, 2);
  std::remove(path.c_str());
}

TEST(FileSinkTest, TruncateStartsFresh) {
  std::string path = ::testing::TempDir() + "/icrowd_journal_fresh.journal";
  for (int run = 0; run < 2; ++run) {
    auto sink = FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok());
    JournalWriter writer(
        std::shared_ptr<JournalSink>(sink.MoveValueOrDie()));
    ASSERT_TRUE(writer.Append(AnswerEvent(run, run)).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ReadJournal(*bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].worker, 1);
  std::remove(path.c_str());
}

TEST(FileSinkTest, OpenFailsOnUnwritablePath) {
  auto sink = FileSink::Open("/nonexistent-dir/x.journal", true);
  EXPECT_FALSE(sink.ok());
}

TEST(FaultInjectingSinkTest, ProducesExactTornPrefix) {
  auto inner = std::make_shared<VectorSink>();
  JournalEvent event = AnswerEvent(3, 4);
  size_t frame_size =
      kFrameHeaderBytes + EncodeJournalEvent(event).size();
  // Budget for one full frame plus 3 bytes of the next.
  auto faulty =
      std::make_shared<FaultInjectingSink>(inner, frame_size + 3);
  JournalWriter writer(faulty);
  ASSERT_TRUE(writer.Append(event).ok());
  EXPECT_FALSE(faulty->tripped());
  Status second = writer.Append(event);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(faulty->tripped());
  EXPECT_EQ(faulty->bytes_written(), frame_size + 3);
  EXPECT_EQ(inner->bytes().size(), frame_size + 3);
  // Once tripped, nothing further is persisted.
  EXPECT_FALSE(writer.Append(event).ok());
  EXPECT_EQ(inner->bytes().size(), frame_size + 3);
  // The scanner recovers the intact frame and drops the torn bytes.
  auto parsed = ReadJournal(inner->bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->dropped_bytes, 3u);
}

// -------------------------------------------------------------- JSONL dump --

TEST(JournalDumpTest, EventJsonNamesTypeAndFields) {
  JournalEvent event = AnswerEvent(5, 9);
  std::string json = JournalEventToJson(event);
  EXPECT_NE(json.find("\"answer_submitted\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"task\":9"), std::string::npos) << json;
}

TEST(JournalDumpTest, DumpFileEndsWithScanSummary) {
  std::string journal_path = ::testing::TempDir() + "/icrowd_dump.journal";
  std::string jsonl_path = ::testing::TempDir() + "/icrowd_dump.jsonl";
  auto sink = std::make_shared<VectorSink>();
  JournalWriter writer(sink);
  ASSERT_TRUE(writer.Append(AnswerEvent(1, 2)).ok());
  std::vector<uint8_t> torn = sink->bytes();
  torn.push_back(0x42);  // one garbage byte after the intact frame
  ASSERT_TRUE(WriteFileBytes(journal_path, torn).ok());

  ASSERT_TRUE(DumpJournalJsonl(journal_path, jsonl_path).ok());
  auto dumped = ReadFileBytes(jsonl_path);
  ASSERT_TRUE(dumped.ok());
  std::string text(dumped->begin(), dumped->end());
  EXPECT_NE(text.find("\"answer_submitted\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"scan_summary\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"dropped_bytes\":1"), std::string::npos) << text;
  std::remove(journal_path.c_str());
  std::remove(jsonl_path.c_str());
}

}  // namespace
}  // namespace icrowd
