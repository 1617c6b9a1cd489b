// DS digest computation and the DS-anchored trust bootstrap (RFC 4034 §5,
// RFC 4509) — the way real validators anchor the root KSK from IANA's
// published trust anchor.
#include <gtest/gtest.h>

#include "dnssec/validator.h"
#include "rss/zone_authority.h"

namespace rootsim::dnssec {
namespace {

using util::make_time;

struct Fixture {
  rss::RootCatalog catalog;
  rss::ZoneAuthorityConfig config;
  std::unique_ptr<rss::ZoneAuthority> authority;

  Fixture() {
    config.tld_count = 25;
    config.rsa_modulus_bits = 512;
    authority = std::make_unique<rss::ZoneAuthority>(catalog, config);
  }

  const dns::DnskeyData& ksk(util::UnixTime t) {
    const dns::RRset* set =
        authority->zone_at(t).find(dns::Name(), dns::RRType::DNSKEY);
    for (const auto& rdata : set->rdatas) {
      const auto* key = std::get_if<dns::DnskeyData>(&rdata);
      if (key && key->is_ksk()) return *key;
    }
    throw std::runtime_error("no KSK");
  }
};

TEST(Ds, MakeAndMatchSha256) {
  Fixture f;
  util::UnixTime now = make_time(2023, 10, 1);
  const auto& ksk = f.ksk(now);
  dns::DsData ds = make_ds(dns::Name(), ksk, 2);
  EXPECT_EQ(ds.digest.size(), 32u);
  EXPECT_EQ(ds.key_tag, ksk.key_tag());
  EXPECT_TRUE(ds_matches(dns::Name(), ds, ksk));
}

TEST(Ds, MakeAndMatchSha384) {
  Fixture f;
  const auto& ksk = f.ksk(make_time(2023, 10, 1));
  dns::DsData ds = make_ds(dns::Name(), ksk, 4);
  EXPECT_EQ(ds.digest.size(), 48u);
  EXPECT_TRUE(ds_matches(dns::Name(), ds, ksk));
}

TEST(Ds, MismatchDetected) {
  Fixture f;
  util::UnixTime now = make_time(2023, 10, 1);
  const auto& ksk = f.ksk(now);
  dns::DsData ds = make_ds(dns::Name(), ksk, 2);
  // Flipped digest byte.
  auto bad = ds;
  bad.digest[3] ^= 0x01;
  EXPECT_FALSE(ds_matches(dns::Name(), bad, ksk));
  // Wrong owner name.
  EXPECT_FALSE(ds_matches(*dns::Name::parse("example."), ds, ksk));
  // Unsupported digest type.
  auto sha1_style = ds;
  sha1_style.digest_type = 1;
  EXPECT_FALSE(ds_matches(dns::Name(), sha1_style, ksk));
  // Different key (the ZSK) never matches a KSK DS.
  const dns::RRset* set =
      f.authority->zone_at(now).find(dns::Name(), dns::RRType::DNSKEY);
  for (const auto& rdata : set->rdatas) {
    const auto* key = std::get_if<dns::DnskeyData>(&rdata);
    if (key && !key->is_ksk()) {
      EXPECT_FALSE(ds_matches(dns::Name(), ds, *key));
    }
  }
}

TEST(Ds, AnchoredBootstrapAcceptsGenuineZone) {
  Fixture f;
  util::UnixTime now = make_time(2023, 12, 10);
  dns::DsData anchor = make_ds(dns::Name(), f.ksk(now), 2);
  const dns::Zone& zone = f.authority->zone_at(now);
  TrustAnchors anchors = TrustAnchors::from_ds_anchor(anchor, zone, now);
  ASSERT_EQ(anchors.keys.size(), 2u);  // KSK + ZSK accepted
  // And the bootstrap anchors validate the whole zone.
  auto result = validate_zone(zone, anchors, now);
  EXPECT_TRUE(result.fully_valid());
}

TEST(Ds, AnchoredBootstrapRejectsWrongAnchor) {
  Fixture f;
  util::UnixTime now = make_time(2023, 12, 10);
  dns::DsData anchor = make_ds(dns::Name(), f.ksk(now), 2);
  anchor.digest[0] ^= 0xFF;  // operator configured a corrupted anchor
  TrustAnchors anchors =
      TrustAnchors::from_ds_anchor(anchor, f.authority->zone_at(now), now);
  EXPECT_TRUE(anchors.keys.empty());
}

TEST(Ds, AnchoredBootstrapRejectsTamperedDnskeySignature) {
  Fixture f;
  util::UnixTime now = make_time(2023, 12, 10);
  dns::DsData anchor = make_ds(dns::Name(), f.ksk(now), 2);
  dns::Zone tampered = f.authority->zone_at(now);
  // Corrupt the RRSIG covering DNSKEY.
  const dns::RRset* sigs = tampered.find(dns::Name(), dns::RRType::RRSIG);
  auto rdatas = sigs->rdatas;
  for (auto& rdata : rdatas) {
    auto* sig = std::get_if<dns::RrsigData>(&rdata);
    if (sig && sig->type_covered == dns::RRType::DNSKEY &&
        !sig->signature.empty())
      sig->signature[8] ^= 0x40;
  }
  tampered.remove_rrset(dns::Name(), dns::RRType::RRSIG);
  for (const auto& rdata : rdatas)
    tampered.add({dns::Name(), dns::RRType::RRSIG, dns::RRClass::IN, 86400,
                  rdata});
  TrustAnchors anchors = TrustAnchors::from_ds_anchor(anchor, tampered, now);
  EXPECT_TRUE(anchors.keys.empty())
      << "a KSK that cannot vouch for the key set must not bootstrap";
}

TEST(Ds, StableAcrossSerials) {
  // The KSK does not roll during the campaign: the same configured anchor
  // bootstraps every serial (the real root's anchor lasted 2010-2018/2024).
  Fixture f;
  dns::DsData anchor = make_ds(dns::Name(), f.ksk(make_time(2023, 7, 15)), 2);
  for (auto t : {make_time(2023, 7, 15), make_time(2023, 10, 1),
                 make_time(2023, 12, 20)}) {
    TrustAnchors anchors =
        TrustAnchors::from_ds_anchor(anchor, f.authority->zone_at(t), t);
    EXPECT_EQ(anchors.keys.size(), 2u) << util::format_date(t);
  }
}

}  // namespace
}  // namespace rootsim::dnssec
