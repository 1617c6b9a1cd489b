// DNSSEC canonical form and ordering (RFC 4034 §6).
//
// Signatures (RFC 4034 §3.1.8.1) and ZONEMD digests (RFC 8976 §3.3) are both
// computed over RRsets serialized in canonical form: owner names lower-cased
// and uncompressed, RDATA in canonical form, and the RRs of an RRset sorted
// by their canonical RDATA byte strings.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/rdata.h"
#include "dns/wire.h"
#include "dns/zone.h"

namespace rootsim::dnssec {

/// The canonical RDATA (RFC 4034 §6.2) of an RRset's rdatas, each encoded
/// once into one buffer and ordered as RFC 4034 §6.3 sorts the RRs of an
/// RRset: by RDATA as a left-justified unsigned octet string. Reusable:
/// clear() keeps the buffers, so one instance serves a whole zone.
class CanonicalRdatas {
 public:
  void clear();
  /// Appends the canonical encoding of one rdata.
  void add(const dns::Rdata& rdata);
  /// Puts the encodings added so far into canonical order.
  void sort();

  size_t size() const { return ranges_.size(); }
  /// The i-th encoding (canonical order after sort(), else insertion order).
  std::span<const uint8_t> operator[](size_t i) const;
  /// Octets of all encodings together.
  size_t total_bytes() const { return writer_.size(); }

 private:
  struct Range {
    uint32_t begin;
    uint32_t end;
  };
  dns::WireWriter writer_;
  std::vector<Range> ranges_;
};

/// Appends the RRs of `rrset` in canonical form (owner lower-cased, TTL
/// `ttl`), one per entry of `sorted`, which holds the set's rdatas.
void put_canonical_rrs(dns::WireWriter& writer, const dns::RRset& rrset,
                       uint32_t ttl, const CanonicalRdatas& sorted);

/// The exact byte string RRSIG(RRset) signatures cover:
///   RRSIG_RDATA (minus signature) || canonical RRs, sorted.
/// The caller provides the RRSIG fields already filled in (except signature).
std::vector<uint8_t> signing_payload(const dns::RrsigData& rrsig_template,
                                     const dns::RRset& rrset);

}  // namespace rootsim::dnssec
