#ifndef ICROWD_HOST_RECOVERY_FILES_H_
#define ICROWD_HOST_RECOVERY_FILES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/ppr.h"
#include "io/framing.h"
#include "journal/journal.h"

namespace icrowd {

/// The two files a CampaignManager keeps beside its journals so OpenCampaign
/// need not redo a campaign's whole life (DESIGN.md §11):
///   <journal_dir>/index/<corpus fingerprint>.ppr — the corpus index, the
///       offline phase of Algorithm 1 (S' and every PPR seed vector);
///   <shard dir>/<name>.ckpt — the campaign's newest checkpoint, an
///       ICrowd::Snapshot() bound to the journal prefix it covers.
/// Both are framed streams (io/framing.h). Writers go through a temporary
/// name and a rename, so a reader sees a whole file or none; readers trust
/// nothing — every failed check is a Status, which the manager answers with
/// a rebuild or a full journal replay, never with a partial load.

/// Journal records between two checkpoints of a campaign.
inline constexpr uint64_t kCheckpointInterval = 1024;

/// One campaign checkpoint. `snapshot` holds the state after the first
/// `events_applied` journal records, which are the first `journal_offset`
/// bytes of the journal, whose CRC-32 is `journal_crc`.
struct Checkpoint {
  uint64_t fingerprint = 0;
  uint64_t events_applied = 0;
  uint64_t journal_offset = 0;
  uint32_t journal_crc = 0;
  std::vector<uint8_t> snapshot;
};

Status EncodeCheckpoint(const Checkpoint& checkpoint, FrameStreamWriter* out);
Result<Checkpoint> DecodeCheckpoint(FrameStreamReader* in);

/// The corpus index stream: a header binding it to `corpus_fingerprint`
/// (ICrowd::CorpusFingerprint), then PprEngine::Encode.
Status EncodeCorpusIndex(uint64_t corpus_fingerprint, const PprEngine& engine,
                         FrameStreamWriter* out);
Result<PprEngine> DecodeCorpusIndex(FrameStreamReader* in,
                                    uint64_t corpus_fingerprint,
                                    size_t num_tasks,
                                    const PprOptions& options);

/// Whole-file forms. Writes stream to `<path>.tmp-<n>`, flush, fsync when
/// `fsync` (and the directory after the rename), then rename over `path`.
Status WriteCheckpointFile(const std::string& path,
                           const Checkpoint& checkpoint, bool fsync);
/// NotFound when the file is absent.
Result<Checkpoint> ReadCheckpointFile(const std::string& path);
Status WriteCorpusIndexFile(const std::string& path,
                            uint64_t corpus_fingerprint,
                            const PprEngine& engine, bool fsync);
/// NotFound when the file is absent.
Result<PprEngine> ReadCorpusIndexFile(const std::string& path,
                                      uint64_t corpus_fingerprint,
                                      size_t num_tasks,
                                      const PprOptions& options);

/// Journal sink wrapper that keeps the byte count and running CRC-32 of
/// everything its inner sink accepted: the journal position and prefix
/// checksum a checkpoint records. Single-writer, like the journal.
class ChecksummedSink : public JournalSink {
 public:
  /// Starts after `bytes` journal bytes whose CRC-32 state (Crc32Update,
  /// not yet finished) is `crc_state`.
  ChecksummedSink(std::unique_ptr<JournalSink> inner, uint64_t bytes,
                  uint32_t crc_state);

  Status Append(const uint8_t* data, size_t size) override;
  Status Flush() override { return inner_->Flush(); }

  uint64_t bytes() const { return bytes_; }
  uint32_t crc() const;

 private:
  std::unique_ptr<JournalSink> inner_;
  uint64_t bytes_;
  uint32_t crc_state_;
};

}  // namespace icrowd

#endif  // ICROWD_HOST_RECOVERY_FILES_H_
