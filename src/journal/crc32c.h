// CRC32C (Castagnoli polynomial), portable slice-by-8 table implementation
// — the checksum guarding every journal record. Streaming interface so
// framed fields can be folded in without materializing a contiguous
// buffer:
//
//   Crc32c crc;
//   crc.u32(len); crc.u64(lsn); crc.u8(type); crc.update(payload);
//   frame.u32(crc.value());
//
// update() folds eight bytes per step through eight constexpr tables and
// finishes the tail one byte at a time; the result is bit-identical to
// the classic bytewise table loop. There is one code path: no
// CPU-specific instructions, no build-time switches.
//
// CRC32C detects all single-bit errors and all burst errors up to 32
// bits — exactly the torn-write / bit-flip corruption the sim storage
// injects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gsalert::journal {

class Crc32c {
 public:
  void update(std::span<const std::byte> bytes);

  // Integer fields folded in little-endian, matching wire::Writer.
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
std::uint32_t crc32c(std::span<const std::byte> bytes);

}  // namespace gsalert::journal
