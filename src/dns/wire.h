// DNS wire-format primitives (RFC 1035 §4.1): big-endian integer fields, name
// encoding with message compression, and bounds-checked reading.
//
// WireReader is deliberately forgiving in what it reports (an `ok()` flag
// rather than exceptions) because the measurement pipeline must parse the
// corrupted AXFR payloads our fault injector produces — a parse failure is a
// *result*, not an error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"

namespace rootsim::dns {

/// Serializes DNS wire data. Compression is opt-in per name so the same
/// writer serves messages (compression allowed) and DNSSEC canonical form
/// (compression and case folding forbidden).
///
/// The compression dictionary is an open-addressed (hash, offset) table over
/// the bytes already written — no per-suffix string keys, so a cleared
/// writer re-encodes messages without allocating. Candidate offsets are
/// verified by walking the buffer (case-insensitively, chasing pointers), so
/// a hash collision can at worst skip a compression opportunity, never emit
/// a wrong pointer. The table is built by the first compressed name: a
/// writer that never compresses (canonical RDATA, signing payloads, ZONEMD
/// input) never allocates or zeroes it.
class WireWriter {
 public:
  void put_u8(uint8_t value);
  void put_u16(uint16_t value);
  void put_u32(uint32_t value);
  void put_bytes(std::span<const uint8_t> bytes);

  /// Writes a name, compressing against earlier names if `compress` is true
  /// and a suffix match exists at an offset < 0x4000.
  void put_name(const Name& name, bool compress = true);

  /// Writes a name in DNSSEC canonical form: uncompressed, lower-cased
  /// octet by octet (no lower-cased copy of the name is made).
  void put_name_canonical(const Name& name);

  /// Patches a previously written u16 (used for RDLENGTH back-filling).
  void patch_u16(size_t offset, uint16_t value);

  /// Resets to an empty message, keeping the buffer's capacity — the reuse
  /// hook that removes per-query allocations from the probe loop.
  void clear();

  /// Sizes the buffer for `size` octets, for callers that know the length.
  void reserve(size_t size) { buffer_.reserve(size); }

  /// Rolls the buffer back to `size` (used by the AXFR packer to drop the
  /// record that overflowed the message budget). Compression entries made
  /// past the truncation point become stale, but every candidate offset is
  /// re-verified against the buffer before use, so they can never produce a
  /// wrong pointer.
  void truncate(size_t size);

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& data() const { return buffer_; }
  std::vector<uint8_t> take() { return std::move(buffer_); }

 private:
  /// True when the name at wire `offset` equals labels[first..] (chasing
  /// compression pointers, comparing case-insensitively).
  bool name_at_equals(size_t offset, const std::vector<std::string>& labels,
                      size_t first) const;

  // Slot 0 in `offset_plus_1` means empty; table size must be a power of 2.
  // 1024 slots comfortably covers the distinct suffixes of a 16 KiB AXFR
  // message; when nearly full we stop inserting (output stays valid and
  // deterministic, compression just degrades). Both are empty until the
  // first compressed name sizes them.
  static constexpr size_t kTableSize = 1024;
  static constexpr size_t kMaxEntries = kTableSize - kTableSize / 4;

  std::vector<uint8_t> buffer_;
  std::vector<uint64_t> hashes_;
  std::vector<uint16_t> offset_plus_1_;
  size_t entries_ = 0;
};

/// Bounds-checked reader with compression-pointer chasing.
class WireReader {
 public:
  /// Hop budget for compression-pointer chains in get_name(). Forward and
  /// self pointers are rejected outright, so every hop strictly decreases the
  /// cursor and chains terminate; the budget additionally caps the *work* a
  /// hostile message can demand (a 64 KiB message can chain thousands of
  /// strictly-backward pointers). 63 hops covers any legitimate message —
  /// real encoders emit at most one pointer per name.
  static constexpr size_t kMaxPointerHops = 63;

  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t get_u8();
  uint16_t get_u16();
  uint32_t get_u32();
  std::vector<uint8_t> get_bytes(size_t count);

  /// Reads a possibly-compressed name. Guards against pointer loops (hop
  /// budget above), forward pointers (compression targets must point
  /// backwards), pointers past the end of the message, and names whose
  /// accumulated wire length exceeds the 255-octet limit — all of these
  /// clear ok() immediately instead of returning partially-parsed garbage.
  Name get_name();

  /// True while no read has overrun or hit malformed data.
  bool ok() const { return ok_; }
  /// Marks the reader failed; callers use this when a semantic check (not a
  /// bounds check) proves the data malformed, so all later reads also fail.
  void fail() { ok_ = false; }
  size_t offset() const { return offset_; }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }
  void seek(size_t offset);
  void skip(size_t count);

 private:
  std::span<const uint8_t> data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace rootsim::dns
