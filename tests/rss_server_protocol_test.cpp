// Protocol-depth behaviours of the server: UDP truncation + TCP retry
// (RFC 1035 §4.2.1 / RFC 6891) and NSEC negative proofs (RFC 4035 §3.1.3).
#include <gtest/gtest.h>

#include "measure/campaign.h"
#include "analysis/coverage.h"
#include "rss/server.h"

namespace rootsim::rss {
namespace {

using util::make_time;

struct Fixture {
  RootCatalog catalog;
  ZoneAuthorityConfig config;
  std::unique_ptr<ZoneAuthority> authority;
  std::unique_ptr<RootServerInstance> instance;

  Fixture() {
    config.tld_count = 80;
    // 1536-bit keys: the DNSKEY+RRSIG answer then clearly exceeds the
    // classic 512-octet UDP limit, like the real root's 2048-bit keys do.
    config.rsa_modulus_bits = 1536;
    authority = std::make_unique<ZoneAuthority>(catalog, config);
    instance = std::make_unique<RootServerInstance>(*authority, catalog, 10,
                                                    "eu01.k.root-servers.org");
  }
};

// Key generation at 1536 bits is slow enough to share across tests.
Fixture& shared_fixture() {
  static Fixture fixture;
  return fixture;
}

TEST(Truncation, SmallBufferGetsTcBit) {
  Fixture& f = shared_fixture();
  // DNSKEY + RRSIG with DO is large; a 512-byte (no-EDNS-style) client must
  // receive TC=1 and no answer records.
  dns::Message query =
      dns::make_query(1, dns::Name(), dns::RRType::DNSKEY, dns::RRClass::IN,
                      /*dnssec_ok=*/true);
  // Shrink the advertised buffer to classic 512.
  for (auto& rr : query.additional)
    if (auto* opt = std::get_if<dns::OptData>(&rr.rdata))
      opt->udp_payload_size = 512;
  dns::Message response = f.instance->handle_udp_query(query, make_time(2023, 10, 1));
  EXPECT_TRUE(response.tc);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_LE(response.encode().size(), 512u);
  // Question preserved so the client can match and retry.
  ASSERT_EQ(response.questions.size(), 1u);
  EXPECT_EQ(response.questions[0].qtype, dns::RRType::DNSKEY);
}

TEST(Truncation, LargeBufferAvoidsTruncation) {
  Fixture& f = shared_fixture();
  dns::Message query =
      dns::make_query(2, dns::Name(), dns::RRType::DNSKEY, dns::RRClass::IN,
                      /*dnssec_ok=*/true);
  dns::Message response =
      f.instance->handle_udp_query(query, make_time(2023, 10, 1));
  EXPECT_FALSE(response.tc);  // default EDNS buffer is 1232
  EXPECT_FALSE(response.answers.empty());
}

TEST(Truncation, TcpPathNeverTruncates) {
  Fixture& f = shared_fixture();
  dns::Message query =
      dns::make_query(3, dns::Name(), dns::RRType::DNSKEY, dns::RRClass::IN, true);
  dns::Message response = f.instance->handle_query(query, make_time(2023, 10, 1));
  EXPECT_FALSE(response.tc);
}

TEST(Truncation, ApplyUdpTruncationIsIdempotentOnSmall) {
  dns::Message tiny;
  tiny.qr = true;
  tiny.questions.push_back({dns::Name(), dns::RRType::SOA, dns::RRClass::IN});
  dns::Message result = apply_udp_truncation(tiny, 512);
  EXPECT_FALSE(result.tc);
  EXPECT_EQ(result.encode(), tiny.encode());
}

TEST(Truncation, AdvertisedPayloadComesFromTheQueryOpt) {
  // Built by hand: make_query auto-attaches the modern 1232 OPT for IN.
  auto bare_query = [](uint16_t id) {
    dns::Message query;
    query.id = id;
    query.questions.push_back({dns::Name(), dns::RRType::SOA, dns::RRClass::IN});
    return query;
  };
  EXPECT_EQ(advertised_udp_payload(bare_query(7)), 512u);  // RFC 6891 §6.2.3

  dns::Message with_edns = bare_query(8);
  with_edns.add_edns(4096, false);
  EXPECT_EQ(advertised_udp_payload(with_edns), 4096u);

  // Sub-512 advertisements are nonsense the RFC floors at 512.
  dns::Message tiny_buffer = bare_query(9);
  tiny_buffer.add_edns(128, false);
  EXPECT_EQ(advertised_udp_payload(tiny_buffer), 512u);

  // Only the first OPT counts (a second one is a FORMERR on the real wire).
  dns::Message two_opts = bare_query(10);
  two_opts.add_edns(1232, false);
  two_opts.add_edns(4096, false);
  EXPECT_EQ(advertised_udp_payload(two_opts), 1232u);

  // make_query's own EDNS attachment is what the prober rides on.
  EXPECT_EQ(advertised_udp_payload(
                dns::make_query(12, dns::Name(), dns::RRType::SOA)),
            1232u);
}

TEST(Truncation, QueryAwareTruncationRespectsAdvertisedBufferAndClamp) {
  Fixture& f = shared_fixture();
  dns::Message query =
      dns::make_query(11, dns::Name(), dns::RRType::DNSKEY, dns::RRClass::IN,
                      /*dnssec_ok=*/true);  // advertises the 1232 default
  dns::Message full = f.instance->handle_query(query, make_time(2023, 10, 1));
  ASSERT_FALSE(full.answers.empty());
  ASSERT_GT(full.encode().size(), 512u);

  // The advertised buffer is honoured when no clamp applies...
  dns::Message untouched = apply_udp_truncation(full, query);
  EXPECT_FALSE(untouched.tc);
  // ...a path MTU below it truncates...
  dns::Message clamped = apply_udp_truncation(full, query, 512);
  EXPECT_TRUE(clamped.tc);
  EXPECT_TRUE(clamped.answers.empty());
  EXPECT_LE(clamped.encode().size(), 512u);
  // ...a clamp above the advertised buffer changes nothing...
  dns::Message wide_clamp = apply_udp_truncation(full, query, 65535);
  EXPECT_FALSE(wide_clamp.tc);
  // ...and a sub-512 clamp is floored at the classic limit.
  dns::Message floor_clamp = apply_udp_truncation(full, query, 100);
  EXPECT_TRUE(floor_clamp.tc);
  EXPECT_LE(floor_clamp.encode().size(), 512u);
}

TEST(Truncation, ProberRetriesOverTcp) {
  measure::CampaignConfig config;
  config.zone.tld_count = 80;
  config.zone.rsa_modulus_bits = 1024;
  config.vp_scale = 0.05;
  measure::Campaign campaign(config);
  util::UnixTime now = make_time(2023, 10, 1, 12, 0);
  auto probe = campaign.prober().probe(campaign.vantage_points()[0],
                                       campaign.catalog().server(0).ipv4, now,
                                       campaign.schedule().round_at(now));
  // With DO set and a big signed zone, at least one of the 46 queries (e.g.
  // ". NS" with all RRSIGs, or AXFR-adjacent large sets) needs TCP... but
  // all must ultimately succeed.
  for (const auto& query : probe.queries) {
    EXPECT_FALSE(query.timed_out);
    EXPECT_EQ(query.rcode, dns::Rcode::NoError);
  }
}

TEST(NsecProof, NxdomainCarriesCoveringNsec) {
  Fixture& f = shared_fixture();
  util::UnixTime now = make_time(2023, 12, 10);
  dns::Message query = dns::make_query(
      4, *dns::Name::parse("nonexistent-tld-zz."), dns::RRType::A,
      dns::RRClass::IN, /*dnssec_ok=*/true);
  dns::Message response = f.instance->handle_query(query, now);
  EXPECT_EQ(response.rcode, dns::Rcode::NxDomain);
  const dns::NsecData* proof = nullptr;
  dns::Name proof_owner;
  for (const auto& rr : response.authority)
    if (const auto* nsec = std::get_if<dns::NsecData>(&rr.rdata)) {
      proof = nsec;
      proof_owner = rr.name;
    }
  ASSERT_NE(proof, nullptr) << "DO-bit NXDOMAIN must carry an NSEC proof";
  // The proof actually covers the queried name.
  dns::Name qname = *dns::Name::parse("nonexistent-tld-zz.");
  EXPECT_LT(proof_owner.canonical_compare(qname), 0);
  if (!proof->next.is_root()) {
    EXPECT_LT(qname.canonical_compare(proof->next), 0);
  }
  // And it is signed.
  bool signed_proof = false;
  for (const auto& rr : response.authority)
    if (const auto* sig = std::get_if<dns::RrsigData>(&rr.rdata))
      if (sig->type_covered == dns::RRType::NSEC) signed_proof = true;
  EXPECT_TRUE(signed_proof);
}

TEST(NsecProof, NoProofWithoutDoBit) {
  Fixture& f = shared_fixture();
  dns::Message query = dns::make_query(
      5, *dns::Name::parse("nonexistent-tld-zz."), dns::RRType::A);
  dns::Message response = f.instance->handle_query(query, make_time(2023, 12, 10));
  for (const auto& rr : response.authority)
    EXPECT_NE(rr.type, dns::RRType::NSEC);
}

TEST(IdentityMapping, MatchesPaperStructure) {
  measure::CampaignConfig config;
  config.zone.tld_count = 25;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.25;
  measure::Campaign campaign(config);
  auto coverage = analysis::compute_coverage(campaign);
  auto mapping = analysis::compute_identity_mapping(campaign, coverage);
  EXPECT_EQ(mapping.mapped + mapping.unmapped, mapping.observed_identifiers);
  EXPECT_GT(mapping.mapped, mapping.unmapped * 5)
      << "the vast majority of identifiers map (paper: 1469/1604)";
  // j.root dominates the unmapped set (paper: 75 of 135).
  size_t j_unmapped = mapping.unmapped_per_root[9];
  EXPECT_GT(j_unmapped, 0u);
  EXPECT_GE(j_unmapped * 2, mapping.unmapped);
  // Metro ambiguity exists for the IATA-code roots.
  EXPECT_GT(mapping.metro_ambiguous, 0u);
}

}  // namespace
}  // namespace rootsim::rss
