#ifndef ICROWD_IO_FRAMING_H_
#define ICROWD_IO_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"

namespace icrowd {

/// Journal frame layout: [u32 payload length][u32 CRC-32 of payload][payload]
/// with both header words little-endian. Write-ahead logs end mid-frame when
/// the process dies mid-append; the scanner below implements the standard
/// WAL answer (truncate at the first frame that is incomplete or fails its
/// checksum — everything before it is intact, everything after is noise).
/// A crash only ever tears the *last* frame, so the scanner also looks past
/// the damage: an intact frame beyond it means the log was damaged in the
/// middle, which truncation would turn into silently lost records.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Upper bound on a single frame payload. A length word above this is
/// treated as corruption by the scanner rather than followed into garbage.
inline constexpr uint32_t kMaxFramePayload = 1u << 24;

/// Appends one framed payload to `out`.
void AppendFrame(const uint8_t* payload, size_t size,
                 std::vector<uint8_t>* out);

struct FrameScan {
  /// (offset, length) of each intact frame's payload within the input.
  std::vector<std::pair<size_t, size_t>> frames;
  /// Bytes covered by intact frames (the safe truncation point).
  size_t valid_bytes = 0;
  /// Trailing bytes dropped as torn/corrupt (input size - valid_bytes).
  size_t dropped_bytes = 0;
  /// Offset of the first CRC-valid, non-empty frame of at most 4 KiB
  /// inside the dropped bytes; 0 when they hold none (a torn tail).
  /// Nonzero means mid-log corruption: records after the damage are intact
  /// and must not be cut.
  size_t intact_frame_after_damage = 0;
};

/// Walks frames from the start of `data`, stopping at the first incomplete
/// header, truncated payload, oversized length, or CRC mismatch, then
/// searches the rest for an intact frame (see intact_frame_after_damage).
FrameScan ScanFrames(const uint8_t* data, size_t size);

/// Payload bytes per frame of a framed stream: one logical byte sequence
/// (the corpus index, a checkpoint) cut into CRC frames, so a reader checks
/// and decodes it one bounded buffer at a time.
inline constexpr size_t kStreamFrameBytes = size_t{1} << 20;

/// Writes a logical byte stream as frames of at most `frame_bytes` payload
/// each. Writes are buffered until a frame fills, then header and payload
/// go to `sink` in one call. Finish() emits the last, partial frame. The
/// first failing sink call is sticky.
class FrameStreamWriter {
 public:
  using Sink = std::function<Status(const uint8_t* data, size_t size)>;

  explicit FrameStreamWriter(Sink sink,
                             size_t frame_bytes = kStreamFrameBytes);

  Status Write(const void* data, size_t size);
  Status Finish();

 private:
  Status EmitFrame();

  Sink sink_;
  size_t frame_bytes_;
  /// Header slot followed by the pending payload.
  std::vector<uint8_t> frame_;
  Status status_;
};

/// Reads a stream FrameStreamWriter wrote, verifying each frame's CRC as it
/// is pulled in. A truncated, oversized or corrupt frame is DataLoss.
class FrameStreamReader {
 public:
  /// Copies up to `size` bytes into `data`, returning how many it copied
  /// (fewer only at the end of the source).
  using Source = std::function<size_t(uint8_t* data, size_t size)>;

  /// `source_bytes` is the source's total size: the bound remaining()
  /// reports before any frame is read.
  FrameStreamReader(Source source, uint64_t source_bytes,
                    size_t frame_bytes = kStreamFrameBytes);

  Status Read(void* data, size_t size);

  /// Upper bound on the payload bytes still readable, so a decoder can
  /// refuse a count no stream of this size could hold before allocating.
  uint64_t remaining() const;

  /// OK when every frame was consumed and the source has no bytes left.
  Status ExpectEnd();

 private:
  /// Pulls the next frame into frame_ and checks it.
  Status NextFrame();

  Source source_;
  uint64_t unread_source_bytes_;
  size_t frame_bytes_;
  std::vector<uint8_t> frame_;
  size_t pos_ = 0;
};

/// A Source over `size` bytes at `data`, which must outlive the reader.
FrameStreamReader::Source MemorySource(const uint8_t* data, size_t size);

}  // namespace icrowd

#endif  // ICROWD_IO_FRAMING_H_
