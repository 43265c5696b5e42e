#include "io/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace icrowd {
namespace {

// The sliced loop XORs the state into the low half of a word loaded in
// host order, which is the first four bytes only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "Crc32Update's slicing-by-8 loop assumes little-endian words");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
/// of byte b followed by k zero bytes, so one step folds eight bytes.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32Begin() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= state;
    state = kTables[7][word & 0xffu] ^ kTables[6][(word >> 8) & 0xffu] ^
            kTables[5][(word >> 16) & 0xffu] ^
            kTables[4][(word >> 24) & 0xffu] ^
            kTables[3][(word >> 32) & 0xffu] ^
            kTables[2][(word >> 40) & 0xffu] ^
            kTables[1][(word >> 48) & 0xffu] ^ kTables[0][word >> 56];
  }
  for (size_t i = 0; i < size; ++i) {
    state = (state >> 8) ^ kTables[0][(state ^ p[i]) & 0xffu];
  }
  return state;
}

uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finish(Crc32Update(Crc32Begin(), data, size));
}

}  // namespace icrowd
