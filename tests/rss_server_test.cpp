#include "rss/server.h"

#include <gtest/gtest.h>

#include <set>

#include "dnssec/validator.h"
#include "scenario/apply.h"

namespace rootsim::rss {
namespace {

using util::make_time;

struct Fixture {
  RootCatalog catalog;
  ZoneAuthorityConfig config;
  std::unique_ptr<ZoneAuthority> authority;
  std::unique_ptr<RootServerInstance> instance;

  Fixture() {
    config.tld_count = 25;
    config.rsa_modulus_bits = 512;
    authority = std::make_unique<ZoneAuthority>(catalog, config);
    instance = std::make_unique<RootServerInstance>(*authority, catalog, 5,
                                                    "eu01.f.root-servers.org");
  }
};

dns::Message query(const char* qname, dns::RRType qtype,
                   dns::RRClass qclass = dns::RRClass::IN, bool dnssec = false) {
  return dns::make_query(1234, *dns::Name::parse(qname), qtype, qclass, dnssec);
}

TEST(RootServer, AnswersRootNsAuthoritatively) {
  Fixture f;
  dns::Message response =
      f.instance->handle_query(query(".", dns::RRType::NS), make_time(2023, 10, 1));
  EXPECT_TRUE(response.qr);
  EXPECT_TRUE(response.aa);
  EXPECT_EQ(response.rcode, dns::Rcode::NoError);
  EXPECT_EQ(response.answers.size(), 13u);
}

TEST(RootServer, AnswersSoaWithCurrentSerial) {
  Fixture f;
  util::UnixTime now = make_time(2023, 10, 8, 14, 0);
  dns::Message response = f.instance->handle_query(query(".", dns::RRType::SOA), now);
  ASSERT_EQ(response.answers.size(), 1u);
  const auto& soa = std::get<dns::SoaData>(response.answers[0].rdata);
  EXPECT_EQ(soa.serial, f.authority->serial_at(now));
}

TEST(RootServer, HostnameBindReturnsIdentity) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("hostname.bind.", dns::RRType::TXT, dns::RRClass::CH),
      make_time(2023, 10, 1));
  ASSERT_EQ(response.answers.size(), 1u);
  const auto& txt = std::get<dns::TxtData>(response.answers[0].rdata);
  ASSERT_EQ(txt.strings.size(), 1u);
  EXPECT_EQ(txt.strings[0], "eu01.f.root-servers.org");
  EXPECT_EQ(response.answers[0].rclass, dns::RRClass::CH);
  // id.server gives the same answer.
  dns::Message id_response = f.instance->handle_query(
      query("id.server.", dns::RRType::TXT, dns::RRClass::CH),
      make_time(2023, 10, 1));
  EXPECT_EQ(std::get<dns::TxtData>(id_response.answers[0].rdata).strings[0],
            "eu01.f.root-servers.org");
}

TEST(RootServer, VersionBindReturnsBanner) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("version.bind.", dns::RRType::TXT, dns::RRClass::CH),
      make_time(2023, 10, 1));
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_FALSE(
      std::get<dns::TxtData>(response.answers[0].rdata).strings[0].empty());
}

TEST(RootServer, UnknownChaosQueryRefused) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("nonsense.bind.", dns::RRType::TXT, dns::RRClass::CH),
      make_time(2023, 10, 1));
  EXPECT_EQ(response.rcode, dns::Rcode::Refused);
}

TEST(RootServer, TldQueryGivesReferral) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("com.", dns::RRType::NS), make_time(2023, 10, 1));
  // Delegation data is non-authoritative.
  EXPECT_FALSE(response.aa);
  EXPECT_EQ(response.rcode, dns::Rcode::NoError);
  EXPECT_FALSE(response.answers.empty());
}

TEST(RootServer, BelowDelegationGivesReferralToTld) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("www.example.com.", dns::RRType::A), make_time(2023, 10, 1));
  EXPECT_FALSE(response.aa);
  EXPECT_EQ(response.rcode, dns::Rcode::NoError);
  EXPECT_TRUE(response.answers.empty());
  ASSERT_FALSE(response.authority.empty());
  EXPECT_EQ(response.authority[0].name, *dns::Name::parse("com."));
  EXPECT_EQ(response.authority[0].type, dns::RRType::NS);
}

TEST(RootServer, NxDomainForUnknownTld) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query("definitely-not-a-tld-xyzq.", dns::RRType::A), make_time(2023, 10, 1));
  EXPECT_EQ(response.rcode, dns::Rcode::NxDomain);
  EXPECT_TRUE(response.aa);
  // SOA in authority for negative caching.
  ASSERT_FALSE(response.authority.empty());
  EXPECT_EQ(response.authority[0].type, dns::RRType::SOA);
}

TEST(RootServer, NodataForExistingNameWrongType) {
  Fixture f;
  dns::Message response = f.instance->handle_query(
      query(".", dns::RRType::MX), make_time(2023, 10, 1));
  EXPECT_EQ(response.rcode, dns::Rcode::NoError);
  EXPECT_TRUE(response.answers.empty());
  ASSERT_FALSE(response.authority.empty());
  EXPECT_EQ(response.authority[0].type, dns::RRType::SOA);
}

TEST(RootServer, DnssecOkAttachesRrsigs) {
  Fixture f;
  util::UnixTime now = make_time(2023, 10, 1);
  dns::Message plain = f.instance->handle_query(query(".", dns::RRType::NS), now);
  dns::Message with_do = f.instance->handle_query(
      query(".", dns::RRType::NS, dns::RRClass::IN, /*dnssec=*/true), now);
  auto count_rrsigs = [](const dns::Message& m) {
    size_t count = 0;
    for (const auto& rr : m.answers)
      if (rr.type == dns::RRType::RRSIG) ++count;
    return count;
  };
  EXPECT_EQ(count_rrsigs(plain), 0u);
  EXPECT_GE(count_rrsigs(with_do), 1u);
}

TEST(RootServer, EmptyQuestionIsFormErr) {
  Fixture f;
  dns::Message empty;
  dns::Message response = f.instance->handle_query(empty, make_time(2023, 10, 1));
  EXPECT_EQ(response.rcode, dns::Rcode::FormErr);
}

TEST(RootServer, AxfrServesFullZone) {
  Fixture f;
  util::UnixTime now = make_time(2023, 10, 1);
  auto records = f.instance->handle_axfr(now);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.front().type, dns::RRType::SOA);
  EXPECT_EQ(records.back().type, dns::RRType::SOA);
  auto zone = dns::Zone::from_axfr(records, dns::Name());
  ASSERT_TRUE(zone.has_value());
  EXPECT_EQ(zone->serial(), f.authority->serial_at(now));
}

TEST(RootServer, AxfrRefusalWhenDisabled) {
  Fixture f;
  InstanceBehavior behavior;
  behavior.allow_axfr = false;
  RootServerInstance strict(*f.authority, f.catalog, 6, "na01.g", behavior);
  EXPECT_TRUE(strict.handle_axfr(make_time(2023, 10, 1)).empty());
}

TEST(RootServer, FrozenInstanceServesStaleZone) {
  // The paper's stale d.root sites: expired signatures weeks later.
  Fixture f;
  InstanceBehavior behavior;
  behavior.frozen_at = make_time(2023, 7, 28);
  RootServerInstance stale(*f.authority, f.catalog, 3, "as01.d", behavior);
  util::UnixTime query_time = make_time(2023, 8, 16, 10, 0);
  auto records = stale.handle_axfr(query_time);
  auto zone = dns::Zone::from_axfr(records, dns::Name());
  ASSERT_TRUE(zone.has_value());
  EXPECT_EQ(zone->serial(), f.authority->serial_at(make_time(2023, 7, 28)));
  // Validating at the (later) query time: signatures have expired.
  auto result = dnssec::validate_zone(*zone, f.authority->trust_anchors(),
                                      query_time);
  EXPECT_EQ(result.dominant_failure(),
            dnssec::ValidationStatus::SignatureExpired);
}

// A signed zone of the paper-2023 library scenario: apex, 40 delegations
// with DS and glue, the NSEC chain and every RRSIG (512-bit keys).
const dns::Zone& library_zone() {
  static const dns::Zone zone = [] {
    ZoneAuthorityConfig config = scenario::paper_campaign_config().zone;
    config.tld_count = 40;
    config.rsa_modulus_bits = 512;
    RootCatalog catalog;
    ZoneAuthority authority(catalog, config);
    return authority.zone_at(config.zonemd_sha384_start + 7 * 86400);
  }();
  return zone;
}

// The covering NSEC by a scan of every RRset: the first NSEC in canonical
// order whose gap holds the name, the last one's gap wrapping to the apex.
const dns::RRset* scan_for_covering_nsec(const dns::Zone& zone,
                                         const dns::Name& name) {
  for (const dns::RRset* set : zone.rrsets()) {
    if (set->type != dns::RRType::NSEC) continue;
    const auto& nsec = std::get<dns::NsecData>(set->rdatas.front());
    if (set->name.canonical_compare(name) < 0 &&
        (name.canonical_compare(nsec.next) < 0 || nsec.next.is_root()))
      return set;
  }
  return nullptr;
}

// An RRset's records, then (with DO) the RRSIGs at `owner` over its type.
std::vector<dns::ResourceRecord> with_rrsigs(const dns::Zone& zone,
                                             const dns::RRset& set,
                                             bool dnssec) {
  std::vector<dns::ResourceRecord> out = set.to_records();
  const dns::RRset* sigs = zone.find(set.name, dns::RRType::RRSIG);
  if (!dnssec || !sigs) return out;
  for (const auto& rr : sigs->to_records())
    if (std::get<dns::RrsigData>(rr.rdata).type_covered == set.type)
      out.push_back(rr);
  return out;
}

// The delegation (NS RRset below the apex) at or above `name`, or nullptr.
const dns::RRset* enclosing_delegation(const dns::Zone& zone, dns::Name name) {
  for (; !name.is_root(); name = name.parent())
    if (const dns::RRset* ns = zone.find(name, dns::RRType::NS)) return ns;
  return nullptr;
}

TEST(AnswerFromZone, AnswersHoldToTheZoneAndTheLinearNsecScan) {
  const dns::Zone& zone = library_zone();
  const dns::RRset& soa = *zone.find(zone.origin(), dns::RRType::SOA);
  auto ask = [&](const dns::Name& name, dns::RRType type, bool dnssec) {
    const dns::Message q =
        dns::make_query(7, name, type, dns::RRClass::IN, dnssec);
    return answer_from_zone(zone, q, q.questions.front());
  };
  // A name in every gap of the NSEC chain: "-" below each owner sorts
  // right after it. The chain runs through the glue names too, so the gaps
  // after a TLD and after its glue lie below the delegation. "<tld>-." and
  // a name below it sort after the TLD's whole subtree and before the next
  // TLD, and "zzzzzzzz." after every owner, in the last NSEC's gap, which
  // wraps to the apex.
  std::vector<dns::Name> names = {*dns::Name::parse("zzzzzzzz.")};
  size_t nsec_owners = 0;
  for (const dns::RRset* set : zone.rrsets()) {
    if (set->type == dns::RRType::NSEC) {
      ++nsec_owners;
      const std::string owner = set->name.is_root() ? "" : set->name.to_string();
      names.push_back(*dns::Name::parse("-." + owner));
    }
    if (set->type == dns::RRType::NS && !set->name.is_root()) {
      const std::string tld = set->name.to_string();
      const std::string after = tld.substr(0, tld.size() - 1) + "-.";
      names.push_back(*dns::Name::parse(after));
      names.push_back(*dns::Name::parse("www.example." + after));
    }
  }
  ASSERT_GT(nsec_owners, 40u);
  std::set<const dns::RRset*> gaps_seen;
  size_t nxdomains = 0, referrals = 0;
  for (const dns::Name& name : names) {
    SCOPED_TRACE(name.to_string());
    ASSERT_FALSE(zone.contains_name(name));
    const dns::RRset* covering = scan_for_covering_nsec(zone, name);
    ASSERT_NE(covering, nullptr);
    EXPECT_EQ(zone.covering_nsec(name), covering);
    gaps_seen.insert(covering);
    const dns::RRset* cut = enclosing_delegation(zone, name);
    cut ? ++referrals : ++nxdomains;
    for (bool dnssec : {false, true}) {
      const dns::Message r = ask(name, dns::RRType::A, dnssec);
      EXPECT_TRUE(r.answers.empty());
      if (cut) {
        EXPECT_EQ(r.rcode, dns::Rcode::NoError);
        EXPECT_FALSE(r.aa);
        EXPECT_EQ(r.authority, cut->to_records());
      } else {
        EXPECT_EQ(r.rcode, dns::Rcode::NxDomain);
        EXPECT_TRUE(r.aa);
        std::vector<dns::ResourceRecord> want = with_rrsigs(zone, soa, dnssec);
        if (dnssec) {
          const auto proof = with_rrsigs(zone, *covering, true);
          want.insert(want.end(), proof.begin(), proof.end());
        }
        EXPECT_EQ(r.authority, want);
      }
    }
  }
  EXPECT_EQ(gaps_seen.size(), nsec_owners);  // every gap, the wrap included
  EXPECT_GT(nxdomains, 80u);
  EXPECT_GT(referrals, 80u);
  // At the glue: its addresses, and NODATA for a type it lacks.
  size_t glue = 0;
  for (const dns::RRset* set : zone.rrsets()) {
    if (set->type != dns::RRType::A && set->type != dns::RRType::AAAA) continue;
    ++glue;
    SCOPED_TRACE(set->name.to_string());
    for (bool dnssec : {false, true}) {
      const dns::Message r = ask(set->name, set->type, dnssec);
      EXPECT_EQ(r.rcode, dns::Rcode::NoError);
      EXPECT_EQ(r.answers, with_rrsigs(zone, *set, dnssec));
      EXPECT_TRUE(r.authority.empty());
      const dns::Message nodata = ask(set->name, dns::RRType::TXT, dnssec);
      EXPECT_TRUE(nodata.answers.empty());
      EXPECT_EQ(nodata.authority, with_rrsigs(zone, soa, dnssec));
    }
  }
  EXPECT_GT(glue, 80u);
}

}  // namespace
}  // namespace rootsim::rss
