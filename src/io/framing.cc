#include "io/framing.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/binary_io.h"
#include "io/crc32.h"

namespace icrowd {

namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreU32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Records are a few dozen bytes. Past damage, only frames up to this size
/// count as intact, which keeps the search linear on hostile input: a
/// random length word rarely passes, and a checksum costs at most this.
constexpr uint32_t kMaxResyncPayload = 4096;

/// Length of the intact frame of at most `max_payload` bytes at `offset`,
/// if one starts there.
bool IntactFrameAt(const uint8_t* data, size_t size, size_t offset,
                   uint32_t max_payload, uint32_t* length) {
  if (size - offset < kFrameHeaderBytes) return false;
  *length = LoadU32(data + offset);
  if (*length > max_payload) return false;  // corrupt length word
  size_t payload_offset = offset + kFrameHeaderBytes;
  if (*length > size - payload_offset) return false;  // torn payload
  return Crc32(data + payload_offset, *length) == LoadU32(data + offset + 4);
}

}  // namespace

void AppendFrame(const uint8_t* payload, size_t size,
                 std::vector<uint8_t>* out) {
  BinaryWriter header;
  header.U32(static_cast<uint32_t>(size));
  header.U32(Crc32(payload, size));
  out->insert(out->end(), header.data().begin(), header.data().end());
  out->insert(out->end(), payload, payload + size);
}

FrameScan ScanFrames(const uint8_t* data, size_t size) {
  FrameScan scan;
  size_t offset = 0;
  uint32_t length = 0;
  while (IntactFrameAt(data, size, offset, kMaxFramePayload, &length)) {
    scan.frames.emplace_back(offset + kFrameHeaderBytes,
                             static_cast<size_t>(length));
    offset += kFrameHeaderBytes + length;
  }
  scan.valid_bytes = offset;
  scan.dropped_bytes = size - offset;
  // Empty frames are skipped: eight zero bytes inside a torn record would
  // otherwise pass for one.
  for (size_t at = offset + 1; at < size; ++at) {
    if (IntactFrameAt(data, size, at, kMaxResyncPayload, &length) &&
        length > 0) {
      scan.intact_frame_after_damage = at;
      break;
    }
  }
  return scan;
}

// ---------------------------------------------------------- framed stream --

FrameStreamWriter::FrameStreamWriter(Sink sink, size_t frame_bytes)
    : sink_(std::move(sink)), frame_bytes_(frame_bytes) {
  frame_.resize(kFrameHeaderBytes);
}

Status FrameStreamWriter::Write(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (size > 0 && status_.ok()) {
    size_t room = kFrameHeaderBytes + frame_bytes_ - frame_.size();
    size_t take = std::min(room, size);
    frame_.insert(frame_.end(), p, p + take);
    p += take;
    size -= take;
    if (take == room) status_ = EmitFrame();
  }
  return status_;
}

Status FrameStreamWriter::Finish() {
  if (status_.ok() && frame_.size() > kFrameHeaderBytes) {
    status_ = EmitFrame();
  }
  return status_;
}

Status FrameStreamWriter::EmitFrame() {
  const size_t payload = frame_.size() - kFrameHeaderBytes;
  StoreU32(static_cast<uint32_t>(payload), frame_.data());
  StoreU32(Crc32(frame_.data() + kFrameHeaderBytes, payload),
           frame_.data() + 4);
  Status status = sink_(frame_.data(), frame_.size());
  frame_.resize(kFrameHeaderBytes);
  return status;
}

FrameStreamReader::FrameStreamReader(Source source, uint64_t source_bytes,
                                     size_t frame_bytes)
    : source_(std::move(source)),
      unread_source_bytes_(source_bytes),
      frame_bytes_(frame_bytes) {}

Status FrameStreamReader::NextFrame() {
  uint8_t header[kFrameHeaderBytes];
  size_t got = source_(header, sizeof(header));
  if (got != sizeof(header)) {
    return Status::DataLoss(got == 0 ? "framed stream ends early"
                                     : "framed stream has a torn header");
  }
  const uint32_t length = LoadU32(header);
  if (length == 0 || length > frame_bytes_) {
    return Status::DataLoss("framed stream has a corrupt length word");
  }
  frame_.resize(length);
  if (source_(frame_.data(), length) != length) {
    return Status::DataLoss("framed stream has a torn frame");
  }
  if (Crc32(frame_.data(), length) != LoadU32(header + 4)) {
    return Status::DataLoss("framed stream frame fails its checksum");
  }
  unread_source_bytes_ -=
      std::min<uint64_t>(unread_source_bytes_, kFrameHeaderBytes + length);
  pos_ = 0;
  return Status::OK();
}

Status FrameStreamReader::Read(void* data, size_t size) {
  uint8_t* out = static_cast<uint8_t*>(data);
  while (size > 0) {
    if (pos_ == frame_.size()) ICROWD_RETURN_NOT_OK(NextFrame());
    const size_t take = std::min(size, frame_.size() - pos_);
    std::memcpy(out, frame_.data() + pos_, take);
    pos_ += take;
    out += take;
    size -= take;
  }
  return Status::OK();
}

uint64_t FrameStreamReader::remaining() const {
  return (frame_.size() - pos_) + unread_source_bytes_;
}

Status FrameStreamReader::ExpectEnd() {
  uint8_t extra = 0;
  if (pos_ != frame_.size() || source_(&extra, 1) != 0) {
    return Status::DataLoss("framed stream has trailing bytes");
  }
  return Status::OK();
}

FrameStreamReader::Source MemorySource(const uint8_t* data, size_t size) {
  auto offset = std::make_shared<size_t>(0);
  return [data, size, offset](uint8_t* out, size_t n) {
    size_t take = std::min(n, size - *offset);
    if (take > 0) std::memcpy(out, data + *offset, take);
    *offset += take;
    return take;
  };
}

}  // namespace icrowd
