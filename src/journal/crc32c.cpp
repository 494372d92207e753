#include "journal/crc32c.h"

#include <array>

namespace gsalert::journal {

namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// kTables[0] is the bytewise table. kTables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups advance the state
// across eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t step_byte(std::uint32_t state, std::uint8_t b) {
  return kTables[0][(state ^ b) & 0xFFu] ^ (state >> 8);
}

// Four bytes: `x` is the state already XORed with them (little-endian).
std::uint32_t step4(std::uint32_t x) {
  return kTables[3][x & 0xFFu] ^ kTables[2][(x >> 8) & 0xFFu] ^
         kTables[1][(x >> 16) & 0xFFu] ^ kTables[0][x >> 24];
}

// Eight bytes: `lo` is the state XORed with the first four, `hi` the
// last four, both little-endian.
std::uint32_t step8(std::uint32_t lo, std::uint32_t hi) {
  return kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
         kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
         kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
         kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
}

std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32c::u8(std::uint8_t v) { state_ = step_byte(state_, v); }

void Crc32c::u32(std::uint32_t v) { state_ = step4(state_ ^ v); }

void Crc32c::u64(std::uint64_t v) {
  state_ = step8(state_ ^ static_cast<std::uint32_t>(v),
                 static_cast<std::uint32_t>(v >> 32));
}

void Crc32c::update(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t state = state_;
  for (; n >= 8; p += 8, n -= 8) {
    state = step8(state ^ load_le32(p), load_le32(p + 4));
  }
  for (; n > 0; ++p, --n) {
    state = step_byte(state, static_cast<std::uint8_t>(*p));
  }
  state_ = state;
}

std::uint32_t crc32c(std::span<const std::byte> bytes) {
  Crc32c crc;
  crc.update(bytes);
  return crc.value();
}

}  // namespace gsalert::journal
