#include "dns/zone.h"

#include <gtest/gtest.h>

namespace rootsim::dns {
namespace {

Zone make_mini_root() {
  Zone zone(Name{});
  SoaData soa;
  soa.mname = *Name::parse("a.root-servers.net.");
  soa.rname = *Name::parse("nstld.verisign-grs.com.");
  soa.serial = 2023100800;
  soa.refresh = 1800;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 86400;
  zone.add({Name(), RRType::SOA, RRClass::IN, 86400, soa});
  for (char c = 'a'; c <= 'm'; ++c)
    zone.add({Name(), RRType::NS, RRClass::IN, 518400,
              NsData{*Name::parse(std::string(1, c) + ".root-servers.net.")}});
  zone.add({*Name::parse("com."), RRType::NS, RRClass::IN, 172800,
            NsData{*Name::parse("a.gtld-servers.net.")}});
  zone.add({*Name::parse("org."), RRType::NS, RRClass::IN, 172800,
            NsData{*Name::parse("a0.org.afilias-nst.info.")}});
  zone.add({*Name::parse("a.gtld-servers.net."), RRType::A, RRClass::IN, 172800,
            AData{*util::IpAddress::parse("192.5.6.30")}});
  return zone;
}

TEST(Zone, AddMergesRrsetsAndDropsDuplicates) {
  Zone zone = make_mini_root();
  const RRset* ns = zone.find(Name(), RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->rdatas.size(), 13u);
  // Re-adding an identical record is a no-op.
  zone.add({Name(), RRType::NS, RRClass::IN, 518400,
            NsData{*Name::parse("a.root-servers.net.")}});
  EXPECT_EQ(zone.find(Name(), RRType::NS)->rdatas.size(), 13u);
}

TEST(Zone, SoaAndSerial) {
  Zone zone = make_mini_root();
  auto soa = zone.soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(soa->serial, 2023100800u);
  EXPECT_EQ(zone.serial(), 2023100800u);
  EXPECT_FALSE(Zone(Name()).soa().has_value());
  EXPECT_EQ(Zone(Name()).serial(), 0u);
}

TEST(Zone, FindAndRemove) {
  Zone zone = make_mini_root();
  EXPECT_NE(zone.find(*Name::parse("com."), RRType::NS), nullptr);
  EXPECT_EQ(zone.find(*Name::parse("com."), RRType::A), nullptr);
  EXPECT_TRUE(zone.remove_rrset(*Name::parse("com."), RRType::NS));
  EXPECT_FALSE(zone.remove_rrset(*Name::parse("com."), RRType::NS));
  EXPECT_EQ(zone.find(*Name::parse("com."), RRType::NS), nullptr);
}

TEST(Zone, CanonicalIterationOrder) {
  Zone zone = make_mini_root();
  auto sets = zone.rrsets();
  // Root apex sorts first; com. before org. before the glue under net.
  ASSERT_GE(sets.size(), 4u);
  EXPECT_TRUE(sets[0]->name.is_root());
  for (size_t i = 0; i + 1 < sets.size(); ++i)
    EXPECT_LE(sets[i]->name.canonical_compare(sets[i + 1]->name), 0);
}

TEST(Zone, CountsAndNames) {
  Zone zone = make_mini_root();
  EXPECT_EQ(zone.record_count(), 1 + 13 + 1 + 1 + 1u);
  EXPECT_TRUE(zone.contains_name(*Name::parse("org.")));
  EXPECT_FALSE(zone.contains_name(*Name::parse("xyz.")));
  auto names = zone.authoritative_names();
  ASSERT_EQ(names.size(), 4u);  // ., com., a.gtld-servers.net., org.
  EXPECT_TRUE(names[0].is_root());
}

TEST(Zone, AxfrFraming) {
  Zone zone = make_mini_root();
  auto records = zone.axfr_records();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.front().type, RRType::SOA);
  EXPECT_EQ(records.back().type, RRType::SOA);
  EXPECT_EQ(records.front(), records.back());
  EXPECT_EQ(records.size(), zone.record_count() + 1);
  // Round trip through AXFR framing.
  auto rebuilt = Zone::from_axfr(records, Name());
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(*rebuilt, zone);
}

TEST(Zone, FromAxfrRejectsBrokenFraming) {
  Zone zone = make_mini_root();
  auto records = zone.axfr_records();
  // Missing trailing SOA.
  auto truncated = records;
  truncated.pop_back();
  EXPECT_FALSE(Zone::from_axfr(truncated, Name()).has_value());
  // Mismatched SOA serial at the end.
  auto mismatched = records;
  std::get<SoaData>(mismatched.back().rdata).serial += 1;
  EXPECT_FALSE(Zone::from_axfr(mismatched, Name()).has_value());
  EXPECT_FALSE(Zone::from_axfr({}, Name()).has_value());
}

TEST(Zone, MasterFileRoundTrip) {
  Zone zone = make_mini_root();
  std::string text = zone.to_master_file();
  std::string error;
  auto parsed = Zone::parse_master_file(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, zone);
}

TEST(Zone, ParseMasterFileRelativeNamesAndDirectives) {
  std::string text =
      "$ORIGIN example.\n"
      "$TTL 3600\n"
      "@ IN SOA ns1 hostmaster 42 1800 900 604800 86400\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.1\n"
      "www 300 IN CNAME ns1\n";
  std::string error;
  auto zone = Zone::parse_master_file(text, &error);
  ASSERT_TRUE(zone.has_value()) << error;
  EXPECT_EQ(zone->origin(), *Name::parse("example."));
  EXPECT_EQ(zone->serial(), 42u);
  const RRset* a = zone->find(*Name::parse("ns1.example."), RRType::A);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ttl, 3600u);  // $TTL default applied
  const RRset* cname = zone->find(*Name::parse("www.example."), RRType::CNAME);
  ASSERT_NE(cname, nullptr);
  EXPECT_EQ(cname->ttl, 300u);  // explicit TTL wins
  EXPECT_EQ(std::get<CnameData>(cname->rdatas[0]).target,
            *Name::parse("ns1.example."));
}

TEST(Zone, ParseMasterFileCommentsAndBlankLines) {
  std::string text =
      "; a zone file\n"
      "\n"
      ". IN SOA a. b. 1 2 3 4 5 ; inline comment\n"
      ". IN TXT \"hello world\" \"second ; not a comment\"\n";
  auto zone = Zone::parse_master_file(text);
  ASSERT_TRUE(zone.has_value());
  const RRset* txt = zone->find(Name(), RRType::TXT);
  ASSERT_NE(txt, nullptr);
  const auto& strings = std::get<TxtData>(txt->rdatas[0]).strings;
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "hello world");
  EXPECT_EQ(strings[1], "second ; not a comment");
}

TEST(Zone, ParseMasterFileErrors) {
  std::string error;
  EXPECT_FALSE(Zone::parse_master_file("nonsense", &error).has_value());
  EXPECT_FALSE(Zone::parse_master_file(". IN A 999.1.1.1\n. IN SOA a. b. 1 2 3 4 5",
                                       &error)
                   .has_value());
  EXPECT_FALSE(Zone::parse_master_file(". IN NS\n", &error).has_value());
  // No SOA at all.
  EXPECT_FALSE(Zone::parse_master_file(". IN NS a.example.\n", &error).has_value());
  EXPECT_EQ(error, "zone has no SOA");

  // RRSIG fields: the covered type must be a known type other than ANY, and
  // algorithm and labels must fit their octets.
  const std::string soa = ". 86400 IN SOA a. b. 1 2 3 4 5\n";
  const std::string good_rrsig =
      ". 86400 IN RRSIG SOA 8 0 86400 1700000000 1690000000 12345 . AAAA\n";
  EXPECT_TRUE(Zone::parse_master_file(soa + good_rrsig, &error).has_value())
      << error;
  const struct {
    const char* rrsig;
    const char* error;
  } bad_rrsigs[] = {
      {". 86400 IN RRSIG SAO 264 300 86400 1700000000 1690000000 12345 . AAAA",
       "line 2: bad RRSIG type covered 'SAO'"},
      {". 86400 IN RRSIG ANY 8 0 86400 1700000000 1690000000 12345 . AAAA",
       "line 2: bad RRSIG type covered 'ANY'"},
      {". 86400 IN RRSIG SOA 264 0 86400 1700000000 1690000000 12345 . AAAA",
       "line 2: bad RRSIG"},
      {". 86400 IN RRSIG SOA 8 300 86400 1700000000 1690000000 12345 . AAAA",
       "line 2: bad RRSIG"},
  };
  for (const auto& row : bad_rrsigs) {
    error.clear();
    EXPECT_FALSE(
        Zone::parse_master_file(soa + row.rrsig + "\n", &error).has_value())
        << row.rrsig;
    EXPECT_EQ(error, row.error) << row.rrsig;
  }

  // A token the rdata does not read is refused, never dropped: each of these
  // used to load, keeping `a.` of the NS line and `ABCD` of the DS digest.
  // Directive errors name their line too.
  const struct {
    const char* text;
    const char* error;
  } leftovers[] = {
      {". 86400 IN A 192.0.2.1 extra tokens",
       "line 2: unexpected 'extra' after the A rdata"},
      {". 86400 IN NS a. b.", "line 2: unexpected 'b.' after the NS rdata"},
      {". 86400 IN SOA a. b. 1 2 3 4 5 6 7",
       "line 2: unexpected '6' after the SOA rdata"},
      {". 86400 IN MX 10 mail. x", "line 2: unexpected 'x' after the MX rdata"},
      {". 86400 IN DS 12345 8 2 ABCD extra", "line 2: bad DS"},
      {"$ORIGIN", "line 2: $ORIGIN missing argument"},
      {"$ORIGIN example. extra", "line 2: unexpected 'extra' after $ORIGIN"},
      {"$ORIGIN bad..name.", "line 2: $ORIGIN bad name"},
      {"$TTL", "line 2: $TTL missing argument"},
      {"$TTL 3600 3600", "line 2: unexpected '3600' after $TTL"},
      {"$TTL soon", "line 2: $TTL bad value"},
  };
  for (const auto& row : leftovers) {
    error.clear();
    EXPECT_FALSE(
        Zone::parse_master_file(soa + row.text + "\n", &error).has_value())
        << row.text;
    EXPECT_EQ(error, row.error) << row.text;
  }
}

TEST(Zone, ParseMasterFileJoinsASplitDigest) {
  // RFC 4034 §5.3 and RFC 8976 §2.3 allow whitespace inside a DS or ZONEMD
  // digest; the tokens join into one hex string.
  std::string error;
  auto zone = Zone::parse_master_file(
      ". 86400 IN SOA a. b. 1 2 3 4 5\n"
      "com. 86400 IN DS 12345 8 2 ABCD EF01\n"
      ". 86400 IN ZONEMD 1 1 241 0102 0304\n",
      &error);
  ASSERT_TRUE(zone.has_value()) << error;
  const RRset* ds = zone->find(*Name::parse("com."), RRType::DS);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(std::get<DsData>(ds->rdatas[0]).digest,
            (std::vector<uint8_t>{0xAB, 0xCD, 0xEF, 0x01}));
  const RRset* zonemd = zone->find(Name(), RRType::ZONEMD);
  ASSERT_NE(zonemd, nullptr);
  EXPECT_EQ(std::get<ZonemdData>(zonemd->rdatas[0]).digest,
            (std::vector<uint8_t>{0x01, 0x02, 0x03, 0x04}));
}

}  // namespace
}  // namespace rootsim::dns
