#ifndef ICROWD_IO_CRC32_H_
#define ICROWD_IO_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace icrowd {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
/// The standard parameterization (init/xorout 0xFFFFFFFF), so the test
/// vector Crc32("123456789", 9) == 0xCBF43926 holds. It frames every
/// record of the journal, `.ckpt` and `.ppr` streams (io/framing.h: a torn
/// or corrupted frame fails its checksum and the scanner stops there),
/// proves the journal prefix a checkpoint covers, and backs the running
/// checksum of ChecksummedSink (DESIGN.md §11).
///
/// Slicing-by-8: eight 256-entry tables (8 KiB), where table k maps a byte
/// to its CRC followed by k zero bytes; each step folds one 8-byte word
/// loaded with memcpy (any alignment) and the leftover bytes go through
/// table 0 one at a time. Values equal the byte-at-a-time definition.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `Crc32Update` the previous return value to extend
/// a checksum over multiple buffers. Start from Crc32Begin(), finish with
/// Crc32Finish().
uint32_t Crc32Begin();
uint32_t Crc32Update(uint32_t state, const void* data, size_t size);
uint32_t Crc32Finish(uint32_t state);

}  // namespace icrowd

#endif  // ICROWD_IO_CRC32_H_
