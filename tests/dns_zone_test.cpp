#include "dns/zone.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dns/axfr.h"
#include "rss/zone_authority.h"
#include "scenario/apply.h"

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

// A signed zone of the paper-2023 library scenario at its SHA-384 stage:
// apex, delegations with DS and glue, the NSEC chain and every RRSIG; fewer
// delegations and smaller keys than a campaign zone keep the build quick.
const Zone& library_zone() {
  static const Zone zone = [] {
    rss::ZoneAuthorityConfig config = scenario::paper_campaign_config().zone;
    config.tld_count = 40;
    config.rsa_modulus_bits = 512;
    rss::RootCatalog catalog;
    rss::ZoneAuthority authority(catalog, config);
    return authority.zone_at(config.zonemd_sha384_start + 7 * 86400);
  }();
  return zone;
}

// The stream's first and last SOA stay in place; the records between them
// are reordered by `reorder`.
template <class Reorder>
std::vector<ResourceRecord> reordered(std::vector<ResourceRecord> records,
                                      Reorder reorder) {
  reorder(records.begin() + 1, records.end() - 1);
  return records;
}

TEST(Zone, FromAxfrBuildsTheSameZoneFromAnyStream) {
  const Zone& zone = library_zone();
  const std::vector<ResourceRecord> stream = zone.axfr_records();
  ASSERT_GT(stream.size(), 500u);
  // Added one record at a time.
  Zone one_by_one{Name()};
  for (size_t i = 0; i + 1 < stream.size(); ++i) one_by_one.add(stream[i]);
  EXPECT_EQ(one_by_one, zone);
  // The in-order stream, copied and moved: the same RRsets with their rdatas
  // in the same order.
  auto copied = Zone::from_axfr(stream, Name());
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(*copied, zone);
  EXPECT_EQ(copied->to_master_file(), zone.to_master_file());
  auto source = stream;
  auto moved = Zone::from_axfr(std::move(source), Name());
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, zone);
  EXPECT_EQ(moved->to_master_file(), zone.to_master_file());
  // Shuffled and reversed: records before the last key take the tree search.
  auto shuffled = Zone::from_axfr(
      reordered(stream, [](auto first, auto last) {
        std::shuffle(first, last, std::mt19937(7));
      }),
      Name());
  ASSERT_TRUE(shuffled.has_value());
  EXPECT_EQ(*shuffled, zone);
  auto reversed = Zone::from_axfr(
      reordered(stream, [](auto first, auto last) { std::reverse(first, last); }),
      Name());
  ASSERT_TRUE(reversed.has_value());
  EXPECT_EQ(*reversed, zone);
  // Every record twice in a row, and the whole stream again: duplicates are
  // dropped wherever they land.
  std::vector<ResourceRecord> doubled{stream.front()};
  for (size_t i = 1; i + 1 < stream.size(); ++i) {
    doubled.push_back(stream[i]);
    doubled.push_back(stream[i]);
  }
  doubled.insert(doubled.end(), stream.begin(), stream.end());
  auto deduplicated = Zone::from_axfr(std::move(doubled), Name());
  ASSERT_TRUE(deduplicated.has_value());
  EXPECT_EQ(*deduplicated, zone);
  EXPECT_EQ(deduplicated->record_count(), zone.record_count());
}

// Upper-cases every other octet of each label (a 0x20 query-name variant).
Name mixed_case(const Name& name) {
  std::vector<std::string> labels = name.labels();
  for (auto& label : labels)
    for (size_t k = 0; k < label.size(); k += 2)
      if (label[k] >= 'a' && label[k] <= 'z') label[k] = static_cast<char>(label[k] - 32);
  return *Name::from_labels(std::move(labels));
}

TEST(Zone, OrderedLookupsAgreeWithALinearScan) {
  const Zone& zone = library_zone();
  const std::vector<const RRset*> all = zone.rrsets();
  auto scan = [&](const Name& name) {
    std::vector<const RRset*> out;
    for (const RRset* set : all)
      if (set->name == name) out.push_back(set);
    return out;
  };
  std::vector<Name> names;
  for (const RRset* set : all) {
    if (!names.empty() && names.back() == set->name) continue;
    names.push_back(set->name);
  }
  const Name last_owner = names.back();
  std::vector<Name> probes;
  for (const Name& owner : names) {
    probes.push_back(owner);
    probes.push_back(mixed_case(owner));
    // Below the owner (below a delegation for a TLD), and just after its
    // subtree: between this owner and the next.
    if (auto below = owner.child("below")) probes.push_back(*below);
    if (!owner.is_root()) {
      std::vector<std::string> labels = owner.labels();
      labels[0] += '-';
      if (auto after = Name::from_labels(std::move(labels))) probes.push_back(*after);
    }
  }
  probes.push_back(*Name::parse("~~~~."));  // past the last owner
  ASSERT_LT(last_owner.canonical_compare(probes.back()), 0);
  size_t found = 0;
  for (const Name& name : probes) {
    SCOPED_TRACE(name.to_string());
    const auto expected = scan(name);
    EXPECT_EQ(zone.rrsets_at(name), expected);
    EXPECT_EQ(zone.contains_name(name), !expected.empty());
    found += !expected.empty();
  }
  // Every owner and its case variant.
  EXPECT_EQ(found, 2 * names.size());
}

// What decodes from the wire renders to a master file that loads back. A DS
// digest, DNSKEY key, RRSIG signature or ZONEMD digest of one octet makes
// the round trip; an empty one has no master-file form, and the wire
// decoder refuses it.
TEST(Zone, DecodedZoneRoundTripsThroughItsMasterFile) {
  Zone zone = make_mini_root();
  const Name com = *Name::parse("com.");
  const std::vector<ResourceRecord> short_fields = {
      {com, RRType::DS, RRClass::IN, 86400, DsData{12345, 8, 2, {0xAB}}},
      {Name(), RRType::DNSKEY, RRClass::IN, 172800, DnskeyData{257, 3, 8, {0x01}}},
      {Name(), RRType::RRSIG, RRClass::IN, 86400,
       RrsigData{RRType::SOA, 8, 0, 86400, 1700000000, 1690000000, 20326, Name(),
                 {0x5A}}},
      {Name(), RRType::ZONEMD, RRClass::IN, 86400,
       ZonemdData{2023100800, 1, 1, {0x01}}},
  };
  for (const auto& rr : short_fields) zone.add(rr);
  auto wire = encode_axfr_stream(zone.axfr_records(),
                                 Question{Name(), RRType::AXFR, RRClass::IN});
  auto parsed = decode_axfr_stream(wire);
  ASSERT_TRUE(parsed.ok()) << *parsed.error;
  auto received = Zone::from_axfr(std::move(parsed.records), Name());
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, zone);
  std::string error;
  auto reloaded = Zone::parse_master_file(received->to_master_file(), &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(*reloaded, zone);

  for (ResourceRecord rr : short_fields) {
    std::visit(
        [](auto& data) {
          using T = std::decay_t<decltype(data)>;
          if constexpr (std::is_same_v<T, DsData> || std::is_same_v<T, ZonemdData>)
            data.digest.clear();
          else if constexpr (std::is_same_v<T, DnskeyData>)
            data.public_key.clear();
          else if constexpr (std::is_same_v<T, RrsigData>)
            data.signature.clear();
        },
        rr.rdata);
    SCOPED_TRACE(record_to_string(rr));
    Zone with_empty = make_mini_root();
    with_empty.add(rr);
    auto empty_wire = encode_axfr_stream(with_empty.axfr_records(),
                                         Question{Name(), RRType::AXFR, RRClass::IN});
    EXPECT_FALSE(decode_axfr_stream(empty_wire).ok());
  }
}

}  // namespace
}  // namespace rootsim::dns
