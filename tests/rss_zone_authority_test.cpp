#include "rss/zone_authority.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "crypto/encoding.h"
#include "crypto/sha2.h"
#include "dnssec/validator.h"

namespace rootsim::rss {
namespace {

using util::make_time;

ZoneAuthorityConfig fast_config() {
  ZoneAuthorityConfig config;
  config.tld_count = 30;
  config.rsa_modulus_bits = 512;
  // The paper's Fig. 2 phase instants, written out because this fixture
  // asserts the literal dates (campaigns get them from the paper-2023 spec).
  config.zonemd_private_start = make_time(2023, 9, 13);
  config.zonemd_sha384_start = make_time(2023, 12, 6, 20, 30);
  config.broot_change = make_time(2023, 11, 27);
  return config;
}

TEST(ZoneAuthority, SerialsFollowRootConvention) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  EXPECT_EQ(authority.serial_at(make_time(2023, 10, 8, 3, 0)), 2023100800u);
  EXPECT_EQ(authority.serial_at(make_time(2023, 10, 8, 13, 0)), 2023100801u);
  EXPECT_EQ(authority.serial_at(make_time(2023, 12, 6, 20, 30)), 2023120601u);
  // Serials are monotone over the campaign.
  uint32_t previous = 0;
  for (util::UnixTime t = make_time(2023, 7, 3); t < make_time(2023, 12, 24);
       t += 6 * 3600) {
    uint32_t serial = authority.serial_at(t);
    EXPECT_GE(serial, previous);
    previous = serial;
  }
}

// The TLD generator draws labels until it has tld_count distinct ones; a
// count past the labels it can make must stop the process with a message
// (in every build type) instead of looping forever.
TEST(ZoneAuthorityDeathTest, TldCountPastTheGeneratorStops) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EQ(kMaxTldCount, 182337u);
  RootCatalog catalog;
  ZoneAuthorityConfig config = fast_config();
  config.tld_count = kMaxTldCount + 1;
  EXPECT_DEATH(ZoneAuthority(catalog, config), "tld_count 182338 exceeds");
}

TEST(ZoneAuthority, ZonemdTimelineMatchesFig2) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  using Mode = dnssec::SigningPolicy::ZonemdMode;
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 8, 1)), Mode::None);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 9, 12)), Mode::None);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 9, 14)),
            Mode::PrivateAlgorithm);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 12, 6, 10, 0)),
            Mode::PrivateAlgorithm);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 12, 7)), Mode::Sha384);
}

TEST(ZoneAuthority, ZoneStructure) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const dns::Zone& zone = authority.zone_at(make_time(2023, 12, 10));
  // Apex: SOA, 13 NS, DNSKEY, NSEC, ZONEMD, RRSIGs.
  EXPECT_TRUE(zone.soa().has_value());
  const dns::RRset* ns = zone.find(dns::Name(), dns::RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->rdatas.size(), 13u);
  EXPECT_NE(zone.find(dns::Name(), dns::RRType::DNSKEY), nullptr);
  EXPECT_NE(zone.find(dns::Name(), dns::RRType::ZONEMD), nullptr);
  // Every root server name has A and AAAA glue.
  for (char c = 'a'; c <= 'm'; ++c) {
    dns::Name name = *dns::Name::parse(std::string(1, c) + ".root-servers.net.");
    EXPECT_NE(zone.find(name, dns::RRType::A), nullptr) << c;
    EXPECT_NE(zone.find(name, dns::RRType::AAAA), nullptr) << c;
  }
  // TLD delegations with DS records, including the .ruhr of Fig. 10.
  EXPECT_NE(zone.find(*dns::Name::parse("ruhr."), dns::RRType::NS), nullptr);
  EXPECT_NE(zone.find(*dns::Name::parse("ruhr."), dns::RRType::DS), nullptr);
  EXPECT_NE(zone.find(*dns::Name::parse("com."), dns::RRType::NS), nullptr);
}

TEST(ZoneAuthority, BRootAddressesSwitchOn1127) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  dns::Name b = *dns::Name::parse("b.root-servers.net.");
  const dns::Zone& before = authority.zone_at(make_time(2023, 11, 26));
  const dns::Zone& after = authority.zone_at(make_time(2023, 11, 28));
  auto a_of = [&](const dns::Zone& zone) {
    const dns::RRset* set = zone.find(b, dns::RRType::A);
    return std::get<dns::AData>(set->rdatas[0]).address.to_string();
  };
  auto aaaa_of = [&](const dns::Zone& zone) {
    const dns::RRset* set = zone.find(b, dns::RRType::AAAA);
    return std::get<dns::AaaaData>(set->rdatas[0]).address.to_string();
  };
  EXPECT_EQ(a_of(before), "199.9.14.201");
  EXPECT_EQ(aaaa_of(before), "2001:500:200::b");
  EXPECT_EQ(a_of(after), "170.247.170.2");
  EXPECT_EQ(aaaa_of(after), "2801:1b8:10::b");
}

TEST(ZoneAuthority, EveryStageValidatesAppropriately) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  dnssec::TrustAnchors anchors = authority.trust_anchors();
  // Pre-ZONEMD: DNSSEC valid, no ZONEMD.
  {
    util::UnixTime t = make_time(2023, 8, 1, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::NoZonemd);
  }
  // Private-algorithm stage: present but not verifiable (like CZDS files
  // between 2023-09-21 and 2023-12-07).
  {
    util::UnixTime t = make_time(2023, 10, 15, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::UnsupportedScheme);
  }
  // SHA-384 stage: fully verifiable.
  {
    util::UnixTime t = make_time(2023, 12, 10, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::Verified);
  }
}

// Pins the signed zone's wire image at each ZONEMD stage: the SHA-256 of the
// AXFR stream covers every RRSIG signing payload, the NSEC chain and the
// ZONEMD digest, so a canonical encoder that moves one byte fails here
// rather than only through a verdict.
TEST(ZoneAuthority, SignedAxfrStreamsMatchRecordedDigests) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  struct Stage {
    util::UnixTime when;
    const char* sha256;
  };
  const Stage stages[] = {
      // No ZONEMD.
      {make_time(2023, 8, 1, 6, 0),
       "c6d08b96e6d93493b2075b6102c26abb69ee13f9c15f5780ed5c53af7a0ca891"},
      // Private-algorithm placeholder.
      {make_time(2023, 10, 15, 6, 0),
       "222029550abc8c2a9bdf21608c790138fe5d4bc6f2def5761c96e3b44795664f"},
      // SHA-384.
      {make_time(2023, 12, 10, 6, 0),
       "6aeb01f031b327640bff993b715c1b45a36e8cc498d5d3bcabc0033b959c465b"},
  };
  for (const Stage& stage : stages) {
    SCOPED_TRACE(authority.serial_at(stage.when));
    EXPECT_EQ(crypto::to_hex(crypto::sha256(authority.axfr_stream_at(stage.when))),
              stage.sha256);
  }
}

TEST(ZoneAuthority, ZoneCacheReturnsSameObject) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const dns::Zone& a = authority.zone_at(make_time(2023, 9, 1, 1, 0));
  const dns::Zone& b = authority.zone_at(make_time(2023, 9, 1, 2, 0));
  EXPECT_EQ(&a, &b);  // same serial -> same cached zone
  const dns::Zone& c = authority.zone_at(make_time(2023, 9, 1, 13, 0));
  EXPECT_NE(&a, &c);  // second daily edit
}

// Instants in several serials of three ZONEMD stages, two per serial and
// both daily edits of each day, so the edits of one day share the signatures
// of their unchanged RRsets. No serial straddles a phase instant.
std::vector<util::UnixTime> concurrency_instants() {
  const std::pair<int, int> days[] = {{8, 1}, {10, 1}, {10, 2}, {12, 10}, {12, 11}};
  std::vector<util::UnixTime> instants;
  for (auto [month, day] : days)
    for (int hour : {1, 6, 13, 18})
      instants.push_back(make_time(2023, month, day, hour, 0));
  return instants;
}

struct SerialBuild {
  std::string master_file;
  std::vector<uint8_t> axfr;
  uint64_t zones_built = 0;
  uint64_t sig_hits = 0;
  uint64_t sig_misses = 0;
};

// One cold authority, its zones and AXFR images built on one thread in the
// given order.
SerialBuild build_serially(const RootCatalog& catalog,
                           const std::vector<util::UnixTime>& instants) {
  obs::MetricsRegistry metrics;
  ZoneAuthority authority(catalog, fast_config(), obs::Obs{&metrics});
  SerialBuild build;
  for (util::UnixTime t : instants) {
    build.master_file += authority.zone_at(t).to_master_file();
    const std::vector<uint8_t>& axfr = authority.axfr_stream_at(t);
    build.axfr.insert(build.axfr.end(), axfr.begin(), axfr.end());
  }
  build.zones_built = metrics.counter_total("rss.zones_built");
  build.sig_hits = metrics.counter_total("rss.sig_cache.hits");
  build.sig_misses = metrics.counter_total("rss.sig_cache.misses");
  return build;
}

TEST(ZoneAuthority, ConcurrentCallersBuildEachSerialOnce) {
  RootCatalog catalog;
  const std::vector<util::UnixTime> instants = concurrency_instants();
  std::set<uint32_t> serials;
  obs::MetricsRegistry metrics;
  ZoneAuthority authority(catalog, fast_config(), obs::Obs{&metrics});
  for (util::UnixTime t : instants) serials.insert(authority.serial_at(t));
  ASSERT_EQ(serials.size(), instants.size() / 2);

  // Every thread walks its own shuffle of the instants, so the threads meet
  // on different serials in different orders, mid-build or after it.
  constexpr size_t kThreads = 8;
  using Seen = std::map<uint32_t,
                        std::pair<const dns::Zone*, const std::vector<uint8_t>*>>;
  std::vector<Seen> seen(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::vector<util::UnixTime> order = instants;
      std::shuffle(order.begin(), order.end(),
                   std::mt19937(static_cast<uint32_t>(i)));
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (util::UnixTime t : order) {
        const dns::Zone* zone = &authority.zone_at(t);
        const std::vector<uint8_t>* axfr = &authority.axfr_stream_at(t);
        auto it = seen[i].try_emplace(authority.serial_at(t), zone, axfr).first;
        EXPECT_EQ(it->second.first, zone);
        EXPECT_EQ(it->second.second, axfr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(metrics.counter_total("rss.zones_built"), serials.size());
  for (size_t i = 1; i < kThreads; ++i)
    EXPECT_EQ(seen[i], seen[0]) << "thread " << i;

  // Same bytes and the same memo totals as a cold authority built serially,
  // in either order: the totals depend on the set of payloads, not on which
  // build signed a shared payload first.
  const SerialBuild in_order = build_serially(catalog, instants);
  SerialBuild concurrent;
  for (util::UnixTime t : instants) {
    concurrent.master_file += authority.zone_at(t).to_master_file();
    const std::vector<uint8_t>& axfr = authority.axfr_stream_at(t);
    concurrent.axfr.insert(concurrent.axfr.end(), axfr.begin(), axfr.end());
  }
  EXPECT_EQ(concurrent.master_file, in_order.master_file);
  EXPECT_EQ(concurrent.axfr, in_order.axfr);
  EXPECT_EQ(in_order.zones_built, serials.size());
  EXPECT_GT(in_order.sig_hits, 0u);
  EXPECT_EQ(metrics.counter_total("rss.sig_cache.hits"), in_order.sig_hits);
  EXPECT_EQ(metrics.counter_total("rss.sig_cache.misses"), in_order.sig_misses);

  const SerialBuild reversed =
      build_serially(catalog, {instants.rbegin(), instants.rend()});
  EXPECT_EQ(reversed.sig_hits, in_order.sig_hits);
  EXPECT_EQ(reversed.sig_misses, in_order.sig_misses);
}

TEST(ZoneAuthority, StableTldSetAcrossSerials) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const auto& tlds = authority.tlds();
  EXPECT_EQ(tlds.size(), 30u);
  EXPECT_TRUE(std::is_sorted(tlds.begin(), tlds.end()));
  const dns::Zone& early = authority.zone_at(make_time(2023, 7, 10));
  const dns::Zone& late = authority.zone_at(make_time(2023, 12, 20));
  for (const auto& tld : tlds) {
    dns::Name owner = *dns::Name::parse(tld + ".");
    EXPECT_NE(early.find(owner, dns::RRType::NS), nullptr);
    EXPECT_NE(late.find(owner, dns::RRType::NS), nullptr);
  }
}

}  // namespace
}  // namespace rootsim::rss
