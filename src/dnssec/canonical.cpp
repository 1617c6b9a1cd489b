#include "dnssec/canonical.h"

#include <algorithm>

#include "dns/codec.h"

namespace rootsim::dnssec {

void CanonicalRdatas::clear() {
  writer_.clear();
  ranges_.clear();
}

void CanonicalRdatas::add(const dns::Rdata& rdata) {
  const auto begin = static_cast<uint32_t>(writer_.size());
  dns::encode_rdata(writer_, rdata, /*canonical=*/true);
  ranges_.push_back({begin, static_cast<uint32_t>(writer_.size())});
}

void CanonicalRdatas::sort() {
  const uint8_t* bytes = writer_.data().data();
  std::sort(ranges_.begin(), ranges_.end(), [bytes](Range a, Range b) {
    return std::lexicographical_compare(bytes + a.begin, bytes + a.end,
                                        bytes + b.begin, bytes + b.end);
  });
}

std::span<const uint8_t> CanonicalRdatas::operator[](size_t i) const {
  const Range range = ranges_[i];
  return {writer_.data().data() + range.begin, range.end - range.begin};
}

void put_canonical_rrs(dns::WireWriter& writer, const dns::RRset& rrset,
                       uint32_t ttl, const CanonicalRdatas& sorted) {
  // Each RR: name | type | class | TTL | RDATA length | RDATA.
  for (size_t i = 0; i < sorted.size(); ++i) {
    const std::span<const uint8_t> rdata = sorted[i];
    writer.put_name_canonical(rrset.name);
    writer.put_u16(static_cast<uint16_t>(rrset.type));
    writer.put_u16(static_cast<uint16_t>(rrset.rclass));
    writer.put_u32(ttl);
    writer.put_u16(static_cast<uint16_t>(rdata.size()));
    writer.put_bytes(rdata);
  }
}

std::vector<uint8_t> signing_payload(const dns::RrsigData& rrsig_template,
                                     const dns::RRset& rrset) {
  // One scratch per thread, reused by every payload the thread builds (a
  // zone pass builds hundreds): each rdata is encoded once, then sorted.
  thread_local CanonicalRdatas sorted;
  sorted.clear();
  for (const auto& rdata : rrset.rdatas) sorted.add(rdata);
  sorted.sort();
  // RRSIG prefix (18 octets and the signer), then per RR the owner, 10
  // octets of type/class/TTL/length, and the RDATA.
  constexpr size_t kRrsigFixed = 18;
  constexpr size_t kRrFixed = 10;
  dns::WireWriter writer;
  writer.reserve(kRrsigFixed + rrsig_template.signer.wire_length() +
                 sorted.size() * (rrset.name.wire_length() + kRrFixed) +
                 sorted.total_bytes());
  // RRSIG RDATA with the Signature field omitted (RFC 4034 §3.1.8.1).
  writer.put_u16(static_cast<uint16_t>(rrsig_template.type_covered));
  writer.put_u8(rrsig_template.algorithm);
  writer.put_u8(rrsig_template.labels);
  writer.put_u32(rrsig_template.original_ttl);
  writer.put_u32(rrsig_template.expiration);
  writer.put_u32(rrsig_template.inception);
  writer.put_u16(rrsig_template.key_tag);
  writer.put_name_canonical(rrsig_template.signer);
  // The set's RRs in canonical RDATA order, each with the original TTL.
  put_canonical_rrs(writer, rrset, rrsig_template.original_ttl, sorted);
  return writer.take();
}

}  // namespace rootsim::dnssec
