// Properties of the RFC 4034 §6 canonical form layer, which everything in
// DNSSEC and ZONEMD depends on.
#include "dnssec/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dns/codec.h"
#include "util/rng.h"

namespace rootsim::dnssec {
namespace {

using dns::Name;
using Bytes = std::vector<uint8_t>;

Bytes canonical_rdata(const dns::Rdata& rdata) {
  return dns::encode_rdata(rdata, /*canonical=*/true);
}

// The canonical RDATA of `rdatas` in canonical order, as byte strings.
std::vector<Bytes> sorted_bytes(const std::vector<dns::Rdata>& rdatas) {
  CanonicalRdatas sorted;
  for (const auto& rdata : rdatas) sorted.add(rdata);
  sorted.sort();
  std::vector<Bytes> out;
  for (size_t i = 0; i < sorted.size(); ++i)
    out.emplace_back(sorted[i].begin(), sorted[i].end());
  return out;
}

TEST(Canonical, RdataEncodingIsDeterministic) {
  dns::RrsigData sig;
  sig.type_covered = dns::RRType::SOA;
  sig.algorithm = 8;
  sig.signer = *Name::parse("Example.");
  sig.signature = {1, 2, 3};
  EXPECT_EQ(canonical_rdata(dns::Rdata(sig)), canonical_rdata(dns::Rdata(sig)));
}

TEST(Canonical, CaseVariantsEncodeIdentically) {
  auto lower = canonical_rdata(dns::NsData{*Name::parse("ns.example.")});
  auto upper = canonical_rdata(dns::NsData{*Name::parse("NS.EXAMPLE.")});
  EXPECT_EQ(lower, upper);
}

TEST(Canonical, SortIsStableAndIdempotent) {
  util::Rng rng(3);
  std::vector<dns::Rdata> rdatas;
  for (int i = 0; i < 30; ++i)
    rdatas.push_back(dns::AData{util::IpAddress::v4(
        static_cast<uint32_t>(rng.next()))});
  auto once = sorted_bytes(rdatas);
  // Each rdata encoded once, sorted by canonical byte order.
  std::vector<Bytes> expected;
  for (const auto& rdata : rdatas) expected.push_back(canonical_rdata(rdata));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(once, expected);
  // Idempotent: the sorted rdatas sort to themselves.
  std::vector<dns::Rdata> in_order;
  for (const Bytes& bytes : once)
    in_order.push_back(*dns::decode_rdata(dns::RRType::A, bytes));
  EXPECT_EQ(sorted_bytes(in_order), once);
  // Permutation-invariant.
  auto shuffled = rdatas;
  rng.shuffle(shuffled);
  EXPECT_EQ(sorted_bytes(shuffled), once);
  // A reused instance starts over on clear().
  CanonicalRdatas reused;
  reused.add(rdatas[0]);
  reused.clear();
  for (const auto& rdata : shuffled) reused.add(rdata);
  reused.sort();
  ASSERT_EQ(reused.size(), once.size());
  for (size_t i = 0; i < once.size(); ++i)
    EXPECT_EQ(Bytes(reused[i].begin(), reused[i].end()), once[i]);
}

TEST(Canonical, SigningPayloadLayout) {
  // RFC 4034 §3.1.8.1: payload = RRSIG RDATA (sans signature) || RR(i)s.
  dns::RRset rrset;
  rrset.name = *Name::parse("EXAMPLE.");
  rrset.type = dns::RRType::A;
  rrset.rclass = dns::RRClass::IN;
  rrset.ttl = 3600;
  rrset.rdatas = {dns::AData{util::IpAddress::v4(192, 0, 2, 1)}};
  dns::RrsigData sig;
  sig.type_covered = dns::RRType::A;
  sig.algorithm = 8;
  sig.labels = 1;
  sig.original_ttl = 7200;  // differs from the RRset TTL on purpose
  sig.expiration = 2000;
  sig.inception = 1000;
  sig.key_tag = 0xBEEF;
  sig.signer = Name();
  auto payload = signing_payload(sig, rrset);
  // Fixed RRSIG prefix: type(2) alg(1) labels(1) ottl(4) exp(4) inc(4)
  // tag(2) = 18 octets, then the signer name (1 octet for the root).
  ASSERT_GT(payload.size(), 19u);
  EXPECT_EQ(payload[0], 0);
  EXPECT_EQ(payload[1], 1);      // type covered = A
  EXPECT_EQ(payload[2], 8);      // algorithm
  EXPECT_EQ(payload[3], 1);      // labels
  EXPECT_EQ(payload[16], 0xBE);  // key tag
  EXPECT_EQ(payload[17], 0xEF);
  EXPECT_EQ(payload[18], 0);     // root signer name
  // Owner name in the RR section is lower-cased: \7example\0.
  EXPECT_EQ(payload[19], 7);
  EXPECT_EQ(payload[20], 'e');
  // The RR's TTL field carries the ORIGINAL TTL (7200 = 0x1C20), not 3600.
  size_t ttl_offset = 19 + 9 + 2 + 2;  // owner(9) type(2) class(2)
  EXPECT_EQ(payload[ttl_offset + 2], 0x1C);
  EXPECT_EQ(payload[ttl_offset + 3], 0x20);
}

TEST(Canonical, PayloadChangesWithAnyField) {
  dns::RRset rrset;
  rrset.name = *Name::parse("x.");
  rrset.type = dns::RRType::TXT;
  rrset.ttl = 60;
  rrset.rdatas = {dns::TxtData{{"hello"}}};
  dns::RrsigData base;
  base.type_covered = dns::RRType::TXT;
  base.algorithm = 8;
  base.labels = 1;
  base.original_ttl = 60;
  base.expiration = 2000;
  base.inception = 1000;
  base.key_tag = 1;
  base.signer = Name();
  auto reference = signing_payload(base, rrset);

  auto variant = base;
  variant.expiration = 2001;
  EXPECT_NE(signing_payload(variant, rrset), reference);
  variant = base;
  variant.key_tag = 2;
  EXPECT_NE(signing_payload(variant, rrset), reference);
  dns::RRset other = rrset;
  std::get<dns::TxtData>(other.rdatas[0]).strings[0] = "Hello";
  EXPECT_NE(signing_payload(base, other), reference)
      << "TXT payload content is case-sensitive (not a name)";
}

TEST(Canonical, RecordEncodingMatchesWireLength) {
  dns::RRset rrset;
  rrset.name = *Name::parse("ruhr.");
  rrset.type = dns::RRType::NS;
  rrset.ttl = 172800;
  rrset.rdatas = {dns::NsData{*Name::parse("ns1.ruhr.")}};
  CanonicalRdatas sorted;
  sorted.add(rrset.rdatas[0]);
  dns::WireWriter writer;
  put_canonical_rrs(writer, rrset, rrset.ttl, sorted);
  // owner(6) + type(2) + class(2) + ttl(4) + rdlen(2) + rdata(10).
  EXPECT_EQ(writer.size(), 6u + 2 + 2 + 4 + 2 + 10);
}

// The RRs ZONEMD hashes and signatures cover are the codec's canonical
// records, one per rdata, in canonical RDATA order: mixed-case owners and
// embedded names, a multi-rdata set given out of order.
TEST(Canonical, CanonicalRrsAreTheCodecsCanonicalRecords) {
  dns::RRset rrset;
  rrset.name = *Name::parse("RuHr.");
  rrset.type = dns::RRType::NS;
  rrset.ttl = 172800;
  for (const char* target : {"NS3.Ruhr.", "ns1.ruhr.", "a.NIC.ruhr.", "ns2.ruhr."})
    rrset.rdatas.push_back(dns::NsData{*Name::parse(target)});
  CanonicalRdatas sorted;
  for (const auto& rdata : rrset.rdatas) sorted.add(rdata);
  sorted.sort();
  dns::WireWriter writer;
  put_canonical_rrs(writer, rrset, 3600, sorted);

  // (canonical RDATA, canonical record) per rdata, in RDATA order: RFC 4034
  // §6.3 sorts by RDATA alone, not by the record with its RDLENGTH.
  std::vector<std::pair<Bytes, Bytes>> records;
  for (const auto& rdata : rrset.rdatas) {
    dns::WireWriter one;
    dns::encode_record_canonical(
        one, dns::ResourceRecord{rrset.name, rrset.type, rrset.rclass, 3600, rdata});
    records.emplace_back(canonical_rdata(rdata), one.data());
  }
  std::sort(records.begin(), records.end());
  Bytes expected;
  for (const auto& [rdata, record] : records)
    expected.insert(expected.end(), record.begin(), record.end());
  EXPECT_EQ(writer.data(), expected);
}

}  // namespace
}  // namespace rootsim::dnssec
