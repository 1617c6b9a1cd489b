#include "dns/codec.h"

#include <gtest/gtest.h>

#include "crypto/encoding.h"

namespace rootsim::dns {
namespace {

ResourceRecord roundtrip(const ResourceRecord& rr) {
  WireWriter w;
  encode_record(w, rr);
  WireReader r(w.data());
  auto decoded = decode_record(r);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return decoded.value_or(ResourceRecord{});
}

TEST(Codec, SoaRoundTrip) {
  ResourceRecord rr;
  rr.name = Name();
  rr.type = RRType::SOA;
  rr.ttl = 86400;
  SoaData soa;
  soa.mname = *Name::parse("a.root-servers.net.");
  soa.rname = *Name::parse("nstld.verisign-grs.com.");
  soa.serial = 2023120600;
  soa.refresh = 1800;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 86400;
  rr.rdata = soa;
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, NsRoundTrip) {
  ResourceRecord rr;
  rr.name = Name();
  rr.type = RRType::NS;
  rr.ttl = 518400;
  rr.rdata = NsData{*Name::parse("m.root-servers.net.")};
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, ARoundTrip) {
  ResourceRecord rr;
  rr.name = *Name::parse("b.root-servers.net.");
  rr.type = RRType::A;
  rr.ttl = 518400;
  rr.rdata = AData{*util::IpAddress::parse("170.247.170.2")};  // new b.root
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, AaaaRoundTrip) {
  ResourceRecord rr;
  rr.name = *Name::parse("b.root-servers.net.");
  rr.type = RRType::AAAA;
  rr.ttl = 518400;
  rr.rdata = AaaaData{*util::IpAddress::parse("2801:1b8:10::b")};
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, TxtRoundTripMultiString) {
  ResourceRecord rr;
  rr.name = *Name::parse("hostname.bind.");
  rr.type = RRType::TXT;
  rr.rclass = RRClass::CH;
  rr.ttl = 0;
  rr.rdata = TxtData{{"fra3.b.root", "second string", ""}};
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, DsRoundTrip) {
  ResourceRecord rr;
  rr.name = *Name::parse("example.");
  rr.type = RRType::DS;
  rr.ttl = 86400;
  rr.rdata = DsData{20326, 8, 2, *crypto::from_hex("e06d44b80b8f1d39a95c0b0d7c65d084"
                                                   "58e880409bbc683457104237c7f8ec8d")};
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, DnskeyRoundTripAndKeyTag) {
  DnskeyData key;
  key.flags = 257;
  key.protocol = 3;
  key.algorithm = 8;
  key.public_key = {3, 1, 0, 1, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4};
  ResourceRecord rr;
  rr.name = Name();
  rr.type = RRType::DNSKEY;
  rr.ttl = 172800;
  rr.rdata = key;
  auto decoded = roundtrip(rr);
  EXPECT_EQ(decoded, rr);
  EXPECT_TRUE(key.is_ksk());
  // Key tag is a pure function of RDATA.
  auto* decoded_key = std::get_if<DnskeyData>(&decoded.rdata);
  ASSERT_NE(decoded_key, nullptr);
  EXPECT_EQ(decoded_key->key_tag(), key.key_tag());
  DnskeyData zsk = key;
  zsk.flags = 256;
  EXPECT_FALSE(zsk.is_ksk());
  EXPECT_NE(zsk.key_tag(), key.key_tag());
}

TEST(Codec, RrsigRoundTrip) {
  RrsigData sig;
  sig.type_covered = RRType::NSEC;
  sig.algorithm = 8;
  sig.labels = 1;
  sig.original_ttl = 86400;
  sig.expiration = 1701406800;  // 20231201050000
  sig.inception = 1700280000;   // 20231118040000
  sig.key_tag = 46780;          // the key tag from the paper's Fig. 10
  sig.signer = Name();
  sig.signature = {0xaa, 0xbb, 0xcc, 0xdd, 0xee};
  ResourceRecord rr;
  rr.name = *Name::parse("world.");
  rr.type = RRType::RRSIG;
  rr.ttl = 86400;
  rr.rdata = sig;
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, NsecRoundTripBitmapWindows) {
  NsecData nsec;
  nsec.next = *Name::parse("aaa.");
  nsec.types = {RRType::NS, RRType::SOA, RRType::RRSIG, RRType::NSEC,
                RRType::DNSKEY, RRType::ZONEMD};
  ResourceRecord rr;
  rr.name = Name();
  rr.type = RRType::NSEC;
  rr.ttl = 86400;
  rr.rdata = nsec;
  auto decoded = roundtrip(rr);
  auto* decoded_nsec = std::get_if<NsecData>(&decoded.rdata);
  ASSERT_NE(decoded_nsec, nullptr);
  std::vector<RRType> expected = nsec.types;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(decoded_nsec->types, expected);
}

TEST(Codec, NsecBitmapHighWindow) {
  // Type 1234 lives in window 4 — exercises multi-window bitmaps.
  NsecData nsec;
  nsec.next = *Name::parse("b.");
  nsec.types = {RRType::A, static_cast<RRType>(1234)};
  ResourceRecord rr;
  rr.name = *Name::parse("a.");
  rr.type = RRType::NSEC;
  rr.ttl = 60;
  rr.rdata = nsec;
  auto decoded = roundtrip(rr);
  auto* decoded_nsec = std::get_if<NsecData>(&decoded.rdata);
  ASSERT_NE(decoded_nsec, nullptr);
  ASSERT_EQ(decoded_nsec->types.size(), 2u);
  EXPECT_EQ(decoded_nsec->types[1], static_cast<RRType>(1234));
}

TEST(Codec, ZonemdRoundTrip) {
  ZonemdData z;
  z.serial = 2023120600;
  z.scheme = ZonemdData::kSchemeSimple;
  z.hash_algorithm = ZonemdData::kHashSha384;
  z.digest.assign(48, 0x5a);
  ResourceRecord rr;
  rr.name = Name();
  rr.type = RRType::ZONEMD;
  rr.ttl = 86400;
  rr.rdata = z;
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, MxRoundTrip) {
  ResourceRecord rr;
  rr.name = *Name::parse("example.");
  rr.type = RRType::MX;
  rr.ttl = 3600;
  rr.rdata = MxData{10, *Name::parse("mail.example.")};
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, GenericRdataRfc3597) {
  GenericData g;
  g.type_code = 99;  // SPF, which we do not model
  g.bytes = {1, 2, 3, 4, 5};
  ResourceRecord rr;
  rr.name = *Name::parse("example.");
  rr.type = static_cast<RRType>(99);
  rr.ttl = 60;
  rr.rdata = g;
  EXPECT_EQ(roundtrip(rr), rr);
}

TEST(Codec, CanonicalEncodingLowercasesNames) {
  ResourceRecord rr;
  rr.name = *Name::parse("WORLD.");
  rr.type = RRType::NS;
  rr.ttl = 86400;
  rr.rdata = NsData{*Name::parse("NS.Example.")};
  WireWriter w;
  encode_record_canonical(w, rr);
  WireReader r(w.data());
  auto decoded = decode_record(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->name.to_string(), "world.");
  EXPECT_EQ(std::get<NsData>(decoded->rdata).nsdname.to_string(), "ns.example.");
}

TEST(Codec, DecodeRejectsTruncatedRdata) {
  ResourceRecord rr;
  rr.name = *Name::parse("x.");
  rr.type = RRType::A;
  rr.ttl = 60;
  rr.rdata = AData{util::IpAddress::v4(1, 2, 3, 4)};
  WireWriter w;
  encode_record(w, rr);
  auto data = w.data();
  data.pop_back();  // truncate the address
  WireReader r(data);
  EXPECT_FALSE(decode_record(r).has_value());
}

TEST(Codec, DecodeRejectsRdlengthMismatch) {
  // A record with RDLENGTH=5 for an A record (must be 4).
  WireWriter w;
  w.put_name(*Name::parse("x."));
  w.put_u16(static_cast<uint16_t>(RRType::A));
  w.put_u16(static_cast<uint16_t>(RRClass::IN));
  w.put_u32(60);
  w.put_u16(5);
  w.put_bytes(std::vector<uint8_t>{1, 2, 3, 4, 5});
  WireReader r(w.data());
  EXPECT_FALSE(decode_record(r).has_value());
}

TEST(Codec, DetachedRdataDecode) {
  AData a{util::IpAddress::v4(193, 0, 14, 129)};  // k.root
  auto bytes = encode_rdata(Rdata(a), false);
  auto decoded = decode_rdata(RRType::A, bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<AData>(*decoded), a);
  EXPECT_FALSE(decode_rdata(RRType::A, std::vector<uint8_t>{1, 2}).has_value());
}

// RFC 4034 §§2.1, 3.1, 5.1 and RFC 8976 §2 give the DNSKEY public key, the
// RRSIG signature and the DS and ZONEMD digests no empty form (and the
// master file cannot write one): the decoder refuses each when empty, as a
// record and as detached RDATA, and takes one octet.
// `field` is the tested field inside `rr`.
void expect_empty_field_refused(ResourceRecord& rr, std::vector<uint8_t>& field) {
  field = {0x5A};
  WireWriter one_octet;
  encode_record(one_octet, rr);
  WireReader accepted(one_octet.data());
  auto decoded = decode_record(accepted);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, rr);

  field.clear();
  WireWriter empty;
  encode_record(empty, rr);
  WireReader refused(empty.data());
  EXPECT_FALSE(decode_record(refused).has_value());
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(decode_rdata(rr.type, encode_rdata(rr.rdata, false)).has_value());
}

TEST(Codec, DecodeRefusesAnEmptyDsDigest) {
  ResourceRecord rr{*Name::parse("com."), RRType::DS, RRClass::IN, 86400,
                    DsData{30909, 8, 2, {}}};
  expect_empty_field_refused(rr, std::get<DsData>(rr.rdata).digest);
}

TEST(Codec, DecodeRefusesAnEmptyDnskeyPublicKey) {
  ResourceRecord rr{Name(), RRType::DNSKEY, RRClass::IN, 172800,
                    DnskeyData{257, 3, 8, {}}};
  expect_empty_field_refused(rr, std::get<DnskeyData>(rr.rdata).public_key);
}

TEST(Codec, DecodeRefusesAnEmptyRrsigSignature) {
  RrsigData sig;
  sig.type_covered = RRType::SOA;
  sig.algorithm = 8;
  sig.original_ttl = 86400;
  sig.expiration = 1700000000;
  sig.inception = 1690000000;
  sig.key_tag = 20326;
  ResourceRecord rr{Name(), RRType::RRSIG, RRClass::IN, 86400, sig};
  expect_empty_field_refused(rr, std::get<RrsigData>(rr.rdata).signature);
}

TEST(Codec, DecodeRefusesAnEmptyZonemdDigest) {
  ResourceRecord rr{Name(), RRType::ZONEMD, RRClass::IN, 86400,
                    ZonemdData{2023120601, 1, 1, {}}};
  expect_empty_field_refused(rr, std::get<ZonemdData>(rr.rdata).digest);
}

}  // namespace
}  // namespace rootsim::dns
