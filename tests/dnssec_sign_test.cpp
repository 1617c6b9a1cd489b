#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dns/codec.h"
#include "dnssec/canonical.h"
#include "dnssec/signer.h"
#include "dnssec/validator.h"
#include "util/timeutil.h"

namespace rootsim::dnssec {
namespace {

using dns::Name;
using dns::RRType;
using util::make_time;

dns::Zone make_unsigned_root() {
  dns::Zone zone{Name{}};
  dns::SoaData soa;
  soa.mname = *Name::parse("a.root-servers.net.");
  soa.rname = *Name::parse("nstld.verisign-grs.com.");
  soa.serial = 2023120600;
  soa.refresh = 1800;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 86400;
  zone.add({Name(), RRType::SOA, dns::RRClass::IN, 86400, soa});
  for (char c = 'a'; c <= 'm'; ++c)
    zone.add({Name(), RRType::NS, dns::RRClass::IN, 518400,
              dns::NsData{*Name::parse(std::string(1, c) + ".root-servers.net.")}});
  // A few delegations with DS and glue.
  for (const char* tld : {"com", "net", "org", "de", "jp", "br"}) {
    Name owner = *Name::parse(std::string(tld) + ".");
    zone.add({owner, RRType::NS, dns::RRClass::IN, 172800,
              dns::NsData{*Name::parse("ns1." + std::string(tld) + ".")}});
    zone.add({owner, RRType::DS, dns::RRClass::IN, 86400,
              dns::DsData{1234, 8, 2, std::vector<uint8_t>(32, 0x11)}});
    zone.add({*Name::parse("ns1." + std::string(tld) + "."), RRType::A,
              dns::RRClass::IN, 172800,
              dns::AData{util::IpAddress::v4(192, 0, 2, static_cast<uint8_t>(tld[0]))}});
  }
  return zone;
}

struct SignedFixture {
  dns::Zone zone;
  SigningKey ksk;
  SigningKey zsk;
  SigningPolicy policy;
};

SignedFixture make_signed_root(
    SigningPolicy::ZonemdMode mode = SigningPolicy::ZonemdMode::Sha384) {
  SignedFixture f{make_unsigned_root(), {}, {}, {}};
  util::Rng rng(42);
  f.ksk = make_ksk(rng, 512);  // small keys keep the test fast
  f.zsk = make_zsk(rng, 512);
  f.policy.inception = make_time(2023, 12, 1);
  f.policy.expiration = make_time(2023, 12, 15);
  f.policy.zonemd = mode;
  sign_zone(f.zone, f.ksk, f.zsk, f.policy);
  return f;
}

TEST(Canonical, RdataSortingIsByteOrder) {
  std::vector<dns::Rdata> rdatas = {
      dns::AData{util::IpAddress::v4(10, 0, 0, 2)},
      dns::AData{util::IpAddress::v4(10, 0, 0, 1)},
      dns::AData{util::IpAddress::v4(9, 255, 255, 255)},
  };
  CanonicalRdatas sorted;
  for (const auto& rdata : rdatas) sorted.add(rdata);
  sorted.sort();
  using Bytes = std::vector<uint8_t>;
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(Bytes(sorted[0].begin(), sorted[0].end()), (Bytes{9, 255, 255, 255}));
  EXPECT_EQ(Bytes(sorted[1].begin(), sorted[1].end()), (Bytes{10, 0, 0, 1}));
  EXPECT_EQ(Bytes(sorted[2].begin(), sorted[2].end()), (Bytes{10, 0, 0, 2}));
}

TEST(Canonical, LowercasesEmbeddedNames) {
  auto bytes = dns::encode_rdata(dns::NsData{*Name::parse("A.ROOT-SERVERS.NET.")},
                                /*canonical=*/true);
  // First label: length 1, 'a' (lowercased).
  ASSERT_GE(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 'a');
}

TEST(Signer, ZoneGainsDnssecRecords) {
  auto f = make_signed_root();
  EXPECT_NE(f.zone.find(Name(), RRType::DNSKEY), nullptr);
  EXPECT_NE(f.zone.find(Name(), RRType::NSEC), nullptr);
  EXPECT_NE(f.zone.find(Name(), RRType::ZONEMD), nullptr);
  EXPECT_NE(f.zone.find(Name(), RRType::RRSIG), nullptr);
  // DS under a delegation is signed; delegation NS is not.
  EXPECT_NE(f.zone.find(*Name::parse("com."), RRType::RRSIG), nullptr);
  const dns::RRset* com_sigs = f.zone.find(*Name::parse("com."), RRType::RRSIG);
  bool covers_ns = false, covers_ds = false;
  for (const auto& rdata : com_sigs->rdatas) {
    auto sig = std::get<dns::RrsigData>(rdata);
    covers_ns |= sig.type_covered == RRType::NS;
    covers_ds |= sig.type_covered == RRType::DS;
  }
  EXPECT_FALSE(covers_ns) << "delegation NS must not be signed";
  EXPECT_TRUE(covers_ds);
}

TEST(Signer, NsecChainIsClosedCycle) {
  auto f = make_signed_root();
  auto names = f.zone.authoritative_names();
  // Follow the chain from the apex; it must visit every name once and return.
  Name cursor;
  size_t steps = 0;
  do {
    const dns::RRset* nsec = f.zone.find(cursor, RRType::NSEC);
    ASSERT_NE(nsec, nullptr) << "missing NSEC at " << cursor.to_string();
    cursor = std::get<dns::NsecData>(nsec->rdatas[0]).next;
    ++steps;
    ASSERT_LE(steps, names.size());
  } while (!cursor.is_root());
  EXPECT_EQ(steps, names.size());
}

TEST(Signer, ZonemdDigestVerifies) {
  auto f = make_signed_root();
  const dns::RRset* zonemd_set = f.zone.find(Name(), RRType::ZONEMD);
  ASSERT_NE(zonemd_set, nullptr);
  const auto& zonemd = std::get<dns::ZonemdData>(zonemd_set->rdatas[0]);
  EXPECT_EQ(zonemd.serial, f.zone.serial());
  EXPECT_EQ(zonemd.hash_algorithm, dns::ZonemdData::kHashSha384);
  EXPECT_EQ(zonemd.digest.size(), 48u);
  auto recomputed = compute_zonemd_digest(f.zone, dns::ZonemdData::kHashSha384);
  EXPECT_EQ(recomputed, zonemd.digest);
}

TEST(Signer, PrivateAlgorithmStageIsNotVerifiable) {
  auto f = make_signed_root(SigningPolicy::ZonemdMode::PrivateAlgorithm);
  const dns::RRset* zonemd_set = f.zone.find(Name(), RRType::ZONEMD);
  ASSERT_NE(zonemd_set, nullptr);
  const auto& zonemd = std::get<dns::ZonemdData>(zonemd_set->rdatas[0]);
  EXPECT_GE(zonemd.hash_algorithm, 240);  // private-use range
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_EQ(result.zonemd, ZonemdStatus::UnsupportedScheme);
  EXPECT_TRUE(result.fully_valid());  // unsupported is not a failure
}

TEST(Signer, NoZonemdStage) {
  auto f = make_signed_root(SigningPolicy::ZonemdMode::None);
  EXPECT_EQ(f.zone.find(Name(), RRType::ZONEMD), nullptr);
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_EQ(result.zonemd, ZonemdStatus::NoZonemd);
  EXPECT_TRUE(result.fully_valid());
}

TEST(Validator, FullyValidZone) {
  auto f = make_signed_root();
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  ASSERT_EQ(anchors.keys.size(), 2u);  // KSK + ZSK
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_TRUE(result.fully_valid());
  EXPECT_EQ(result.zonemd, ZonemdStatus::Verified);
  EXPECT_TRUE(result.signature_failures.empty());
  EXPECT_GT(result.rrsets_checked, 5u);
  EXPECT_EQ(result.dominant_failure(), ValidationStatus::Valid);
}

TEST(Validator, ClockSkewBeforeInception) {
  // A VP whose clock is wrong (paper: six cases over two VPs) validates a
  // fresh zone "before" the signatures were incepted.
  auto f = make_signed_root();
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 11, 20));
  EXPECT_FALSE(result.fully_valid());
  EXPECT_EQ(result.dominant_failure(), ValidationStatus::SignatureNotIncepted);
}

TEST(Validator, StaleZoneSignatureExpired) {
  // A stale zone file served weeks later (paper: two d.root sites).
  auto f = make_signed_root();
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2024, 1, 15));
  EXPECT_FALSE(result.fully_valid());
  EXPECT_EQ(result.dominant_failure(), ValidationStatus::SignatureExpired);
}

TEST(Validator, BitflipIsBogusAndZonemdMismatch) {
  auto f = make_signed_root();
  // Flip one bit in one RRSIG signature (the paper's Fig. 10 scenario).
  const dns::RRset* sigs = f.zone.find(Name(), RRType::RRSIG);
  ASSERT_NE(sigs, nullptr);
  auto rdatas = sigs->rdatas;
  auto& sig = std::get<dns::RrsigData>(rdatas[0]);
  sig.signature[10] ^= 0x20;
  f.zone.remove_rrset(Name(), RRType::RRSIG);
  for (const auto& rdata : rdatas)
    f.zone.add({Name(), RRType::RRSIG, dns::RRClass::IN, 86400, rdata});
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_EQ(result.dominant_failure(), ValidationStatus::BogusSignature);
  // ZONEMD covers RRSIGs, so the digest no longer matches either.
  EXPECT_EQ(result.zonemd, ZonemdStatus::Mismatch);
}

TEST(Validator, BitflipInUnsignedGlueCaughtOnlyByZonemd) {
  // The key argument of the paper's §7: glue is not covered by DNSSEC, so a
  // corrupted glue A record produces NO signature failure — only ZONEMD
  // notices.
  auto f = make_signed_root();
  Name glue = *Name::parse("ns1.com.");
  const dns::RRset* a_set = f.zone.find(glue, RRType::A);
  ASSERT_NE(a_set, nullptr);
  auto addr = std::get<dns::AData>(a_set->rdatas[0]).address;
  f.zone.remove_rrset(glue, RRType::A);
  auto bytes = addr.bytes();
  f.zone.add({glue, RRType::A, dns::RRClass::IN, 172800,
              dns::AData{util::IpAddress::v4(bytes[0], bytes[1], bytes[2],
                                             static_cast<uint8_t>(bytes[3] ^ 0x01))}});
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_TRUE(result.signature_failures.empty())
      << "glue is unsigned; DNSSEC alone cannot catch this";
  EXPECT_EQ(result.zonemd, ZonemdStatus::Mismatch)
      << "ZONEMD must catch glue corruption";
}

TEST(Validator, ZonemdSerialMismatchDetected) {
  auto f = make_signed_root();
  const dns::RRset* zonemd_set = f.zone.find(Name(), RRType::ZONEMD);
  auto zonemd = std::get<dns::ZonemdData>(zonemd_set->rdatas[0]);
  zonemd.serial -= 1;
  f.zone.remove_rrset(Name(), RRType::ZONEMD);
  f.zone.add({Name(), RRType::ZONEMD, dns::RRClass::IN, 86400, zonemd});
  auto anchors = TrustAnchors::from_zone_apex(f.zone);
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_EQ(result.zonemd, ZonemdStatus::SerialMismatch);
}

TEST(Validator, UnknownKeyTag) {
  auto f = make_signed_root();
  // Validate against anchors from a different key set.
  util::Rng rng(777);
  SigningKey other_ksk = make_ksk(rng, 512);
  SigningKey other_zsk = make_zsk(rng, 512);
  TrustAnchors anchors;
  anchors.keys = {other_ksk.to_dnskey(), other_zsk.to_dnskey()};
  auto result = validate_zone(f.zone, anchors, make_time(2023, 12, 7));
  EXPECT_EQ(result.dominant_failure(), ValidationStatus::UnknownKey);
}

TEST(Validator, RoundTripThroughAxfrAndMasterFile) {
  // Sign, serialize through both transports the paper uses (AXFR and zone
  // file download), re-validate — everything must still verify.
  auto f = make_signed_root();
  auto anchors = TrustAnchors::from_zone_apex(f.zone);

  auto via_axfr = dns::Zone::from_axfr(f.zone.axfr_records(), Name());
  ASSERT_TRUE(via_axfr.has_value());
  EXPECT_TRUE(validate_zone(*via_axfr, anchors, make_time(2023, 12, 7)).fully_valid());
  EXPECT_EQ(validate_zone(*via_axfr, anchors, make_time(2023, 12, 7)).zonemd,
            ZonemdStatus::Verified);

  std::string error;
  auto via_file = dns::Zone::parse_master_file(f.zone.to_master_file(), &error);
  ASSERT_TRUE(via_file.has_value()) << error;
  auto result = validate_zone(*via_file, anchors, make_time(2023, 12, 7));
  EXPECT_TRUE(result.fully_valid());
  EXPECT_EQ(result.zonemd, ZonemdStatus::Verified);
}

TEST(Validator, StatusStrings) {
  EXPECT_EQ(to_string(ValidationStatus::BogusSignature), "bogus-signature");
  EXPECT_EQ(to_string(ZonemdStatus::Verified), "zonemd-verified");
}

// ---------------------------------------------------------------------------
// Signature memo: warm signatures must be the exact bytes a cold sign
// produces, and anything that changes what a signature covers — the RRset,
// the serial, the key — must miss instead of serving stale bytes.

TEST(SignatureCache, WarmSignZoneIsByteIdenticalToColdSign) {
  util::Rng rng(42);
  SigningKey ksk = make_ksk(rng, 512);
  SigningKey zsk = make_zsk(rng, 512);
  SigningPolicy policy;
  policy.inception = make_time(2023, 12, 1);
  policy.expiration = make_time(2023, 12, 15);
  policy.zonemd = SigningPolicy::ZonemdMode::Sha384;

  dns::Zone cold = make_unsigned_root();
  sign_zone(cold, ksk, zsk, policy);

  SignatureCache cache;
  dns::Zone first = make_unsigned_root();
  const SignatureLookups first_lookups = sign_zone(first, ksk, zsk, policy, &cache);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), cache.misses());
  EXPECT_EQ(first_lookups.hits, 0u);
  EXPECT_EQ(first_lookups.misses, cache.misses());
  EXPECT_EQ(first.to_master_file(), cold.to_master_file());

  // Identical zone again: every signature must come out of the memo, and the
  // bytes must still be the cold-sign bytes (RSASSA-PKCS1 is deterministic,
  // so any divergence is a cache bug, not an RNG artifact).
  const uint64_t misses_after_cold = cache.misses();
  dns::Zone second = make_unsigned_root();
  const SignatureLookups second_lookups =
      sign_zone(second, ksk, zsk, policy, &cache);
  EXPECT_EQ(cache.misses(), misses_after_cold);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(second_lookups.hits, cache.hits());
  EXPECT_EQ(second_lookups.misses, 0u);
  EXPECT_EQ(second.to_master_file(), cold.to_master_file());

  // Without a cache there are no lookups to report.
  dns::Zone uncached = make_unsigned_root();
  const SignatureLookups none = sign_zone(uncached, ksk, zsk, policy);
  EXPECT_EQ(none.hits + none.misses, 0u);
}

TEST(SignatureCache, SerialBumpInvalidatesChangedRRsetsOnly) {
  util::Rng rng(42);
  SigningKey ksk = make_ksk(rng, 512);
  SigningKey zsk = make_zsk(rng, 512);
  SigningPolicy policy;
  policy.inception = make_time(2023, 12, 1);
  policy.expiration = make_time(2023, 12, 15);
  policy.zonemd = SigningPolicy::ZonemdMode::Sha384;

  SignatureCache cache;
  dns::Zone first = make_unsigned_root();
  sign_zone(first, ksk, zsk, policy, &cache);
  const uint64_t misses_first = cache.misses();
  const uint64_t hits_first = cache.hits();

  // Bump the serial: the SOA RRset (and the serial-bearing ZONEMD) now cover
  // different content, so their cached signatures are unusable by
  // construction — the payload *is* the cache key.
  auto bumped_unsigned = [] {
    dns::Zone zone = make_unsigned_root();
    dns::Zone bumped{Name{}};
    for (const dns::RRset* rrset : zone.rrsets())
      for (dns::ResourceRecord record : rrset->to_records()) {
        if (record.type == RRType::SOA)
          std::get<dns::SoaData>(record.rdata).serial += 1;
        bumped.add(record);
      }
    return bumped;
  };
  dns::Zone bumped = bumped_unsigned();
  sign_zone(bumped, ksk, zsk, policy, &cache);
  EXPECT_GT(cache.misses(), misses_first) << "serial bump must re-sign";
  EXPECT_GT(cache.hits(), hits_first) << "unchanged RRsets must still hit";

  // And the mixed hit/miss output is exactly what a cold signer produces.
  dns::Zone cold = bumped_unsigned();
  sign_zone(cold, ksk, zsk, policy);
  EXPECT_EQ(bumped.to_master_file(), cold.to_master_file());
}

TEST(SignatureCache, KeyRollNeverServesOldKeysBytes) {
  util::Rng rng(42);
  SigningKey ksk = make_ksk(rng, 512);
  SigningKey zsk = make_zsk(rng, 512);
  util::Rng roll_rng(43);
  SigningKey rolled_zsk = make_zsk(roll_rng, 512);
  ASSERT_NE(zsk.key_tag(), rolled_zsk.key_tag());
  SigningPolicy policy;
  policy.inception = make_time(2023, 12, 1);
  policy.expiration = make_time(2023, 12, 15);
  policy.zonemd = SigningPolicy::ZonemdMode::Sha384;

  SignatureCache cache;
  dns::Zone first = make_unsigned_root();
  sign_zone(first, ksk, zsk, policy, &cache);
  const uint64_t hits_before_roll = cache.hits();

  // Same zone content, new ZSK: every ZSK signature carries a new key
  // identity and the DNSKEY RRset itself changed, so nothing may hit.
  dns::Zone rolled = make_unsigned_root();
  sign_zone(rolled, ksk, rolled_zsk, policy, &cache);
  EXPECT_EQ(cache.hits(), hits_before_roll);

  dns::Zone cold = make_unsigned_root();
  sign_zone(cold, ksk, rolled_zsk, policy);
  EXPECT_EQ(rolled.to_master_file(), cold.to_master_file());

  // The rolled zone validates only against the rolled anchors.
  TrustAnchors rolled_anchors;
  rolled_anchors.keys = {ksk.to_dnskey(), rolled_zsk.to_dnskey()};
  EXPECT_TRUE(
      validate_zone(rolled, rolled_anchors, make_time(2023, 12, 7)).fully_valid());
  TrustAnchors old_anchors;
  old_anchors.keys = {ksk.to_dnskey(), zsk.to_dnskey()};
  EXPECT_FALSE(
      validate_zone(rolled, old_anchors, make_time(2023, 12, 7)).fully_valid());
}

TEST(SignatureCache, DirectSignMatchesContext) {
  util::Rng rng(7);
  SigningKey zsk = make_zsk(rng, 512);
  crypto::RsaSignContext ctx(zsk.rsa);
  const std::vector<uint8_t> key_id = {1, 2, 3};
  const std::vector<uint8_t> payload_a = {10, 20, 30};
  const std::vector<uint8_t> payload_b = {10, 20, 31};

  SignatureCache cache;
  auto direct = crypto::rsa_sign(zsk.rsa, crypto::RsaHash::Sha256, payload_a);
  ASSERT_FALSE(direct.empty());
  auto miss = cache.sign(ctx, key_id, crypto::RsaHash::Sha256, payload_a);
  EXPECT_EQ(miss, direct);
  auto hit = cache.sign(ctx, key_id, crypto::RsaHash::Sha256, payload_a);
  EXPECT_EQ(hit, direct);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Distinct payloads get distinct entries; a distinct key identity misses
  // even on an identical payload.
  cache.sign(ctx, key_id, crypto::RsaHash::Sha256, payload_b);
  const std::vector<uint8_t> other_key_id = {9, 9, 9};
  cache.sign(ctx, other_key_id, crypto::RsaHash::Sha256, payload_a);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SignatureCache, ConcurrentLookupsOfOnePayloadSignItOnce) {
  util::Rng rng(7);
  SigningKey zsk = make_zsk(rng, 512);
  const crypto::RsaSignContext ctx(zsk.rsa);
  const std::vector<uint8_t> key_id = {1, 2, 3};
  // Large enough that hashing it inside the sign takes far longer than the
  // threads take to start, so the lookups overlap the first one's sign.
  const std::vector<uint8_t> payload(4 << 20, 0x5a);
  const auto direct = crypto::rsa_sign(zsk.rsa, crypto::RsaHash::Sha256, payload);

  constexpr size_t kThreads = 8;
  SignatureCache cache;
  std::vector<std::vector<uint8_t>> signatures(kThreads);
  std::vector<SignatureLookups> lookups(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Start together so the lookups overlap the first one's sign.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      signatures[i] = cache.sign(ctx, key_id, crypto::RsaHash::Sha256, payload,
                                 &lookups[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
  uint64_t misses = 0;
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(signatures[i], direct) << "thread " << i;
    EXPECT_EQ(lookups[i].hits + lookups[i].misses, 1u) << "thread " << i;
    misses += lookups[i].misses;
  }
  EXPECT_EQ(misses, 1u);
}

}  // namespace
}  // namespace rootsim::dnssec
