// AXFR on the wire (RFC 5936) over a simulated TCP stream.
//
// A zone transfer is a TCP byte stream of 2-byte-length-prefixed DNS
// messages; the server packs as many answer RRs per message as fit a
// configurable size budget. This module provides both directions:
// serializing a record stream into the framed byte stream, and parsing a
// received stream back into records — the path on which a single flipped
// byte becomes a hard parse error or a bad signature, depending on where it
// lands.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dns/message.h"

namespace rootsim::dns {

struct AxfrStreamOptions {
  /// Maximum wire size per DNS message (RFC 5936 recommends filling
  /// messages; real servers use ~16-64 KiB over TCP). Clamped to 65535, the
  /// most a 2-octet frame prefix can describe.
  size_t max_message_bytes = 16 * 1024;
};

/// Serializes an AXFR record stream (SOA ... SOA) into a framed TCP stream:
/// each message is prefixed by its 2-octet length (RFC 1035 §4.2.2).
/// Returns an empty stream if any single record cannot fit a 64 KiB frame —
/// there is no valid framing for it, and an empty stream always fails
/// decode_axfr_stream, so the error cannot be mistaken for a transfer.
std::vector<uint8_t> encode_axfr_stream(const std::vector<ResourceRecord>& records,
                                        const Question& question,
                                        const AxfrStreamOptions& options = {});

/// Result of parsing a framed stream.
struct AxfrParseResult {
  std::vector<ResourceRecord> records;
  size_t message_count = 0;
  /// Set when the stream is malformed (bad framing, bad message, rcode != 0,
  /// missing terminal SOA). `records` holds what was salvaged.
  std::optional<std::string> error;

  bool ok() const { return !error.has_value(); }
};

/// Parses a framed AXFR stream back into records. Validates framing, message
/// syntax, and SOA-first/SOA-last structure.
AxfrParseResult decode_axfr_stream(std::span<const uint8_t> stream);

}  // namespace rootsim::dns
