#include "host/recovery_files.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <utility>

#include "core/icrowd.h"
#include "io/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define ICROWD_RECOVERY_HAS_FSYNC 1
#endif

namespace icrowd {

namespace {

/// "ICCK" and "ICPX" in little-endian byte order.
constexpr uint32_t kCheckpointMagic = 0x4B434349;
constexpr uint32_t kCorpusIndexMagic = 0x58504349;
constexpr uint32_t kCheckpointFormatVersion = 1;

template <typename T>
Status Put(FrameStreamWriter* out, T value) {
  return out->Write(&value, sizeof(T));
}

template <typename T>
Status Get(FrameStreamReader* in, T* value) {
  return in->Read(value, sizeof(T));
}

Status ExpectHeader(FrameStreamReader* in, uint32_t magic, uint32_t version,
                    const char* what) {
  uint32_t stored_magic = 0;
  uint32_t stored_version = 0;
  ICROWD_RETURN_NOT_OK(Get(in, &stored_magic));
  ICROWD_RETURN_NOT_OK(Get(in, &stored_version));
  if (stored_magic != magic) {
    return Status::InvalidArgument(std::string("not an icrowd ") + what);
  }
  if (stored_version != version) {
    return Status::FailedPrecondition(std::string(what) + " format version " +
                                      std::to_string(stored_version) +
                                      " is not supported");
  }
  return Status::OK();
}

#ifdef ICROWD_RECOVERY_HAS_FSYNC
Status FsyncDirectory(const std::filesystem::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot open " + dir.string());
  const bool failed = ::fsync(fd) != 0;
  ::close(fd);
  if (failed) return Status::Internal("fsync failed on " + dir.string());
  return Status::OK();
}
#endif

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Streams `body` into `path` through a uniquely named temporary file, so
/// concurrent writers of the same path (two campaigns on one corpus) never
/// interleave and a crash leaves the old file or the new one.
Status WriteFramedFile(const std::string& path, bool fsync,
                       const std::function<Status(FrameStreamWriter*)>& body) {
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp-" + std::to_string(next_temp++);
  File owned(std::fopen(temp.c_str(), "wb"));
  if (owned == nullptr) {
    return Status::Internal("cannot create " + temp);
  }
  std::FILE* file = owned.get();
  FrameStreamWriter writer([file](const uint8_t* data, size_t size) {
    if (std::fwrite(data, 1, size, file) != size) {
      return Status::Internal("write failed");
    }
    return Status::OK();
  });
  Status status = body(&writer);
  if (status.ok()) status = writer.Finish();
  if (status.ok() && std::fflush(file) != 0) {
    status = Status::Internal("flush failed");
  }
#ifdef ICROWD_RECOVERY_HAS_FSYNC
  if (status.ok() && fsync && ::fsync(fileno(file)) != 0) {
    status = Status::Internal("fsync failed");
  }
#endif
  if (std::fclose(owned.release()) != 0 && status.ok()) {
    status = Status::Internal("close failed");
  }
  std::error_code ec;
  if (status.ok()) {
    std::filesystem::rename(temp, path, ec);
    if (ec) status = Status::Internal("rename failed: " + ec.message());
  }
  if (!status.ok()) {
    std::filesystem::remove(temp, ec);
    return Status(status.code(),
                  "writing " + path + ": " + status.message());
  }
#ifdef ICROWD_RECOVERY_HAS_FSYNC
  if (fsync) {
    return FsyncDirectory(std::filesystem::path(path).parent_path());
  }
#endif
  return Status::OK();
}

template <typename T>
Result<T> ReadFramedFile(
    const std::string& path,
    const std::function<Result<T>(FrameStreamReader*)>& body) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::NotFound("cannot stat " + path);
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  FrameStreamReader reader(
      [raw = file.get()](uint8_t* data, size_t n) {
        return std::fread(data, 1, n, raw);
      },
      size);
  return body(&reader);
}

}  // namespace

Status EncodeCheckpoint(const Checkpoint& checkpoint, FrameStreamWriter* out) {
  ICROWD_RETURN_NOT_OK(Put(out, kCheckpointMagic));
  ICROWD_RETURN_NOT_OK(Put(out, kCheckpointFormatVersion));
  ICROWD_RETURN_NOT_OK(Put(out, checkpoint.fingerprint));
  ICROWD_RETURN_NOT_OK(Put(out, checkpoint.events_applied));
  ICROWD_RETURN_NOT_OK(Put(out, checkpoint.journal_offset));
  ICROWD_RETURN_NOT_OK(Put(out, checkpoint.journal_crc));
  ICROWD_RETURN_NOT_OK(Put<uint64_t>(out, checkpoint.snapshot.size()));
  return out->Write(checkpoint.snapshot.data(), checkpoint.snapshot.size());
}

Result<Checkpoint> DecodeCheckpoint(FrameStreamReader* in) {
  ICROWD_RETURN_NOT_OK(ExpectHeader(in, kCheckpointMagic,
                                    kCheckpointFormatVersion, "checkpoint"));
  Checkpoint checkpoint;
  uint64_t snapshot_bytes = 0;
  ICROWD_RETURN_NOT_OK(Get(in, &checkpoint.fingerprint));
  ICROWD_RETURN_NOT_OK(Get(in, &checkpoint.events_applied));
  ICROWD_RETURN_NOT_OK(Get(in, &checkpoint.journal_offset));
  ICROWD_RETURN_NOT_OK(Get(in, &checkpoint.journal_crc));
  ICROWD_RETURN_NOT_OK(Get(in, &snapshot_bytes));
  if (snapshot_bytes == 0 || snapshot_bytes > in->remaining()) {
    return Status::InvalidArgument("checkpoint snapshot length is corrupt");
  }
  checkpoint.snapshot.resize(static_cast<size_t>(snapshot_bytes));
  ICROWD_RETURN_NOT_OK(
      in->Read(checkpoint.snapshot.data(), checkpoint.snapshot.size()));
  ICROWD_RETURN_NOT_OK(in->ExpectEnd());
  return checkpoint;
}

Status EncodeCorpusIndex(uint64_t corpus_fingerprint, const PprEngine& engine,
                         FrameStreamWriter* out) {
  ICROWD_RETURN_NOT_OK(Put(out, kCorpusIndexMagic));
  ICROWD_RETURN_NOT_OK(Put(out, kCorpusIndexFormatVersion));
  ICROWD_RETURN_NOT_OK(Put(out, corpus_fingerprint));
  return engine.Encode(out);
}

Result<PprEngine> DecodeCorpusIndex(FrameStreamReader* in,
                                    uint64_t corpus_fingerprint,
                                    size_t num_tasks,
                                    const PprOptions& options) {
  ICROWD_RETURN_NOT_OK(ExpectHeader(in, kCorpusIndexMagic,
                                    kCorpusIndexFormatVersion,
                                    "corpus index"));
  uint64_t stored = 0;
  ICROWD_RETURN_NOT_OK(Get(in, &stored));
  if (stored != corpus_fingerprint) {
    return Status::FailedPrecondition(
        "corpus index belongs to another corpus (fingerprint mismatch)");
  }
  ICROWD_ASSIGN_OR_RETURN(PprEngine engine,
                          PprEngine::Decode(in, num_tasks, options));
  ICROWD_RETURN_NOT_OK(in->ExpectEnd());
  return engine;
}

Status WriteCheckpointFile(const std::string& path,
                           const Checkpoint& checkpoint, bool fsync) {
  return WriteFramedFile(path, fsync, [&](FrameStreamWriter* out) {
    return EncodeCheckpoint(checkpoint, out);
  });
}

Result<Checkpoint> ReadCheckpointFile(const std::string& path) {
  return ReadFramedFile<Checkpoint>(path, DecodeCheckpoint);
}

Status WriteCorpusIndexFile(const std::string& path,
                            uint64_t corpus_fingerprint,
                            const PprEngine& engine, bool fsync) {
  return WriteFramedFile(path, fsync, [&](FrameStreamWriter* out) {
    return EncodeCorpusIndex(corpus_fingerprint, engine, out);
  });
}

Result<PprEngine> ReadCorpusIndexFile(const std::string& path,
                                      uint64_t corpus_fingerprint,
                                      size_t num_tasks,
                                      const PprOptions& options) {
  return ReadFramedFile<PprEngine>(path, [&](FrameStreamReader* in) {
    return DecodeCorpusIndex(in, corpus_fingerprint, num_tasks, options);
  });
}

ChecksummedSink::ChecksummedSink(std::unique_ptr<JournalSink> inner,
                                 uint64_t bytes, uint32_t crc_state)
    : inner_(std::move(inner)), bytes_(bytes), crc_state_(crc_state) {}

Status ChecksummedSink::Append(const uint8_t* data, size_t size) {
  ICROWD_RETURN_NOT_OK(inner_->Append(data, size));
  bytes_ += size;
  crc_state_ = Crc32Update(crc_state_, data, size);
  return Status::OK();
}

uint32_t ChecksummedSink::crc() const { return Crc32Finish(crc_state_); }

}  // namespace icrowd
