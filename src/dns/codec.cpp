#include "dns/codec.h"

#include <algorithm>
#include <array>
#include <bit>

namespace rootsim::dns {

namespace {

// Writes a name inside RDATA. Only the types grandfathered by RFC 3597 §4 may
// be compressed in messages; canonical form never compresses and lower-cases.
void put_rdata_name(WireWriter& writer, const Name& name, bool compress,
                    bool canonical) {
  if (canonical)
    writer.put_name_canonical(name);
  else
    writer.put_name(name, compress);
}

void encode_rdata_into(WireWriter& writer, const Rdata& rdata, bool compress,
                       bool canonical) {
  struct Visitor {
    WireWriter& w;
    bool compress;
    bool canonical;

    void operator()(const SoaData& soa) const {
      put_rdata_name(w, soa.mname, compress, canonical);
      put_rdata_name(w, soa.rname, compress, canonical);
      w.put_u32(soa.serial);
      w.put_u32(soa.refresh);
      w.put_u32(soa.retry);
      w.put_u32(soa.expire);
      w.put_u32(soa.minimum);
    }
    void operator()(const NsData& ns) const {
      put_rdata_name(w, ns.nsdname, compress, canonical);
    }
    void operator()(const CnameData& c) const {
      put_rdata_name(w, c.target, compress, canonical);
    }
    void operator()(const AData& a) const {
      w.put_bytes({a.address.bytes().data(), 4});
    }
    void operator()(const AaaaData& a) const {
      w.put_bytes({a.address.bytes().data(), 16});
    }
    void operator()(const TxtData& txt) const {
      for (const auto& s : txt.strings) {
        w.put_u8(static_cast<uint8_t>(std::min<size_t>(s.size(), 255)));
        w.put_bytes({reinterpret_cast<const uint8_t*>(s.data()),
                     std::min<size_t>(s.size(), 255)});
      }
    }
    void operator()(const MxData& mx) const {
      w.put_u16(mx.preference);
      put_rdata_name(w, mx.exchange, compress, canonical);
    }
    void operator()(const DsData& ds) const {
      w.put_u16(ds.key_tag);
      w.put_u8(ds.algorithm);
      w.put_u8(ds.digest_type);
      w.put_bytes(ds.digest);
    }
    void operator()(const DnskeyData& key) const {
      w.put_u16(key.flags);
      w.put_u8(key.protocol);
      w.put_u8(key.algorithm);
      w.put_bytes(key.public_key);
    }
    void operator()(const RrsigData& sig) const {
      w.put_u16(static_cast<uint16_t>(sig.type_covered));
      w.put_u8(sig.algorithm);
      w.put_u8(sig.labels);
      w.put_u32(sig.original_ttl);
      w.put_u32(sig.expiration);
      w.put_u32(sig.inception);
      w.put_u16(sig.key_tag);
      // RFC 4034 §3.1.7: the signer name is never compressed; §6.2 also
      // lower-cases it in canonical form.
      if (canonical)
        w.put_name_canonical(sig.signer);
      else
        w.put_name(sig.signer, /*compress=*/false);
      w.put_bytes(sig.signature);
    }
    void operator()(const NsecData& nsec) const {
      if (canonical)
        w.put_name_canonical(nsec.next);
      else
        w.put_name(nsec.next, /*compress=*/false);
      // Type bitmap (RFC 4034 §4.1.2): window blocks of up to 32 octets.
      std::vector<RRType> types = nsec.types;
      std::sort(types.begin(), types.end());
      types.erase(std::unique(types.begin(), types.end()), types.end());
      size_t i = 0;
      while (i < types.size()) {
        uint8_t window = static_cast<uint8_t>(static_cast<uint16_t>(types[i]) >> 8);
        uint8_t bitmap[32] = {};
        size_t max_octet = 0;
        while (i < types.size() &&
               (static_cast<uint16_t>(types[i]) >> 8) == window) {
          uint8_t low = static_cast<uint8_t>(static_cast<uint16_t>(types[i]));
          bitmap[low / 8] |= static_cast<uint8_t>(0x80 >> (low % 8));
          max_octet = std::max<size_t>(max_octet, low / 8 + 1);
          ++i;
        }
        w.put_u8(window);
        w.put_u8(static_cast<uint8_t>(max_octet));
        w.put_bytes({bitmap, max_octet});
      }
    }
    void operator()(const ZonemdData& z) const {
      w.put_u32(z.serial);
      w.put_u8(z.scheme);
      w.put_u8(z.hash_algorithm);
      w.put_bytes(z.digest);
    }
    void operator()(const OptData&) const {
      // OPT RDATA: we carry no options; flags live in the record shell.
    }
    void operator()(const GenericData& g) const { w.put_bytes(g.bytes); }
  };
  std::visit(Visitor{writer, compress, canonical}, rdata);
}

// For OPT pseudo-records the class field carries the UDP payload size and the
// TTL carries extended rcode/version/DO flag (RFC 6891 §6.1.2).
void encode_shell(WireWriter& writer, const ResourceRecord& rr, bool compress,
                  bool canonical) {
  if (canonical)
    writer.put_name_canonical(rr.name);
  else
    writer.put_name(rr.name, compress);
  writer.put_u16(static_cast<uint16_t>(rr.type));
  if (rr.type == RRType::OPT) {
    const auto* opt = std::get_if<OptData>(&rr.rdata);
    uint16_t payload = opt ? opt->udp_payload_size : 512;
    uint32_t ttl = opt ? (static_cast<uint32_t>(opt->extended_rcode) << 24 |
                          static_cast<uint32_t>(opt->version) << 16 |
                          (opt->dnssec_ok ? 0x8000u : 0u))
                       : 0;
    writer.put_u16(payload);
    writer.put_u32(ttl);
  } else {
    writer.put_u16(static_cast<uint16_t>(rr.rclass));
    writer.put_u32(rr.ttl);
  }
}

}  // namespace

void encode_record(WireWriter& writer, const ResourceRecord& rr, bool compress) {
  encode_shell(writer, rr, compress, /*canonical=*/false);
  size_t rdlength_at = writer.size();
  writer.put_u16(0);
  size_t rdata_start = writer.size();
  encode_rdata_into(writer, rr.rdata, compress, /*canonical=*/false);
  writer.patch_u16(rdlength_at, static_cast<uint16_t>(writer.size() - rdata_start));
}

void encode_record_canonical(WireWriter& writer, const ResourceRecord& rr) {
  encode_shell(writer, rr, /*compress=*/false, /*canonical=*/true);
  size_t rdlength_at = writer.size();
  writer.put_u16(0);
  size_t rdata_start = writer.size();
  encode_rdata_into(writer, rr.rdata, /*compress=*/false, /*canonical=*/true);
  writer.patch_u16(rdlength_at, static_cast<uint16_t>(writer.size() - rdata_start));
}

void encode_rdata(WireWriter& writer, const Rdata& rdata, bool canonical) {
  encode_rdata_into(writer, rdata, /*compress=*/false, canonical);
}

std::vector<uint8_t> encode_rdata(const Rdata& rdata, bool canonical) {
  WireWriter writer;
  encode_rdata(writer, rdata, canonical);
  return writer.take();
}

namespace {

// Decodes RDATA of `type` straight into `out`: each name and byte field is
// read into the alternative it belongs to, so the record owns what the
// reader produced without a copy. RFC 4034 and RFC 8976 give a DS digest, a
// DNSKEY public key, an RRSIG signature and a ZONEMD digest no empty form,
// and the master file has none either, so an empty one is refused here.
bool decode_rdata_at(WireReader& reader, RRType type, size_t rdlength,
                     Rdata& out) {
  size_t end = reader.offset() + rdlength;
  auto take_rest = [&](std::vector<uint8_t>& field) {
    // Fixed-width fields read above may already have consumed past `end` when
    // RDLENGTH lies (e.g. a DS record claiming 2 octets): `end - offset`
    // would then wrap to a near-2^64 count whose overflow-prone bounds check
    // could pass. Treat overrun as the malformed-RDATA failure it is.
    if (reader.offset() > end) {
      reader.fail();
      return;
    }
    field = reader.get_bytes(end - reader.offset());
  };
  auto take_rest_nonempty = [&](std::vector<uint8_t>& field) {
    take_rest(field);
    if (field.empty()) reader.fail();
  };
  switch (type) {
    case RRType::SOA: {
      auto& soa = out.emplace<SoaData>();
      soa.mname = reader.get_name();
      soa.rname = reader.get_name();
      soa.serial = reader.get_u32();
      soa.refresh = reader.get_u32();
      soa.retry = reader.get_u32();
      soa.expire = reader.get_u32();
      soa.minimum = reader.get_u32();
      return reader.ok();
    }
    case RRType::NS:
      out.emplace<NsData>().nsdname = reader.get_name();
      return reader.ok();
    case RRType::CNAME:
      out.emplace<CnameData>().target = reader.get_name();
      return reader.ok();
    case RRType::A: {
      if (rdlength != 4) return false;
      std::array<uint8_t, 4> b{};
      for (auto& octet : b) octet = reader.get_u8();
      if (!reader.ok()) return false;
      out = AData{util::IpAddress::v4(b[0], b[1], b[2], b[3])};
      return true;
    }
    case RRType::AAAA: {
      if (rdlength != 16) return false;
      std::array<uint8_t, 16> bytes{};
      for (auto& octet : bytes) octet = reader.get_u8();
      if (!reader.ok()) return false;
      out = AaaaData{util::IpAddress::v6(bytes)};
      return true;
    }
    case RRType::TXT: {
      auto& txt = out.emplace<TxtData>();
      while (reader.ok() && reader.offset() < end) {
        uint8_t len = reader.get_u8();
        auto bytes = reader.get_bytes(len);
        if (!reader.ok()) return false;
        txt.strings.emplace_back(bytes.begin(), bytes.end());
      }
      return reader.ok() && reader.offset() == end;
    }
    case RRType::MX: {
      auto& mx = out.emplace<MxData>();
      mx.preference = reader.get_u16();
      mx.exchange = reader.get_name();
      return reader.ok();
    }
    case RRType::DS: {
      auto& ds = out.emplace<DsData>();
      ds.key_tag = reader.get_u16();
      ds.algorithm = reader.get_u8();
      ds.digest_type = reader.get_u8();
      take_rest_nonempty(ds.digest);
      return reader.ok();
    }
    case RRType::DNSKEY: {
      auto& key = out.emplace<DnskeyData>();
      key.flags = reader.get_u16();
      key.protocol = reader.get_u8();
      key.algorithm = reader.get_u8();
      take_rest_nonempty(key.public_key);
      return reader.ok();
    }
    case RRType::RRSIG: {
      auto& sig = out.emplace<RrsigData>();
      sig.type_covered = static_cast<RRType>(reader.get_u16());
      sig.algorithm = reader.get_u8();
      sig.labels = reader.get_u8();
      sig.original_ttl = reader.get_u32();
      sig.expiration = reader.get_u32();
      sig.inception = reader.get_u32();
      sig.key_tag = reader.get_u16();
      sig.signer = reader.get_name();
      if (!reader.ok() || reader.offset() > end) return false;
      take_rest_nonempty(sig.signature);
      return reader.ok();
    }
    case RRType::NSEC: {
      auto& nsec = out.emplace<NsecData>();
      nsec.next = reader.get_name();
      while (reader.ok() && reader.offset() < end) {
        uint8_t window = reader.get_u8();
        uint8_t len = reader.get_u8();
        if (len == 0 || len > 32) return false;
        uint8_t bitmap[32] = {};
        size_t set_bits = 0;
        for (size_t octet = 0; octet < len; ++octet) {
          bitmap[octet] = reader.get_u8();
          set_bits += static_cast<size_t>(std::popcount(bitmap[octet]));
        }
        if (!reader.ok()) return false;
        nsec.types.reserve(nsec.types.size() + set_bits);
        for (size_t octet = 0; octet < len; ++octet)
          for (int bit = 0; bit < 8; ++bit)
            if (bitmap[octet] & (0x80 >> bit))
              nsec.types.push_back(static_cast<RRType>(
                  static_cast<uint16_t>(window) << 8 | (octet * 8 + bit)));
      }
      return reader.ok() && reader.offset() == end;
    }
    case RRType::ZONEMD: {
      auto& z = out.emplace<ZonemdData>();
      z.serial = reader.get_u32();
      z.scheme = reader.get_u8();
      z.hash_algorithm = reader.get_u8();
      take_rest_nonempty(z.digest);
      return reader.ok();
    }
    default: {
      auto& g = out.emplace<GenericData>();
      g.type_code = static_cast<uint16_t>(type);
      take_rest(g.bytes);
      return reader.ok();
    }
  }
}

}  // namespace

std::optional<ResourceRecord> decode_record(WireReader& reader) {
  ResourceRecord rr;
  rr.name = reader.get_name();
  rr.type = static_cast<RRType>(reader.get_u16());
  uint16_t class_field = reader.get_u16();
  uint32_t ttl_field = reader.get_u32();
  uint16_t rdlength = reader.get_u16();
  if (!reader.ok()) return std::nullopt;
  if (rr.type == RRType::OPT) {
    OptData opt;
    opt.udp_payload_size = class_field;
    opt.extended_rcode = static_cast<uint8_t>(ttl_field >> 24);
    opt.version = static_cast<uint8_t>(ttl_field >> 16);
    opt.dnssec_ok = (ttl_field & 0x8000) != 0;
    reader.skip(rdlength);
    if (!reader.ok()) return std::nullopt;
    rr.rclass = RRClass::IN;
    rr.ttl = 0;
    rr.rdata = opt;
    return rr;
  }
  rr.rclass = static_cast<RRClass>(class_field);
  rr.ttl = ttl_field;
  if (reader.remaining() < rdlength) return std::nullopt;
  size_t end = reader.offset() + rdlength;
  if (!decode_rdata_at(reader, rr.type, rdlength, rr.rdata) ||
      reader.offset() != end)
    return std::nullopt;
  return rr;
}

std::optional<Rdata> decode_rdata(RRType type, std::span<const uint8_t> data) {
  WireReader reader(data);
  Rdata rdata;
  if (!decode_rdata_at(reader, type, data.size(), rdata) || !reader.ok() ||
      reader.remaining() != 0)
    return std::nullopt;
  return rdata;
}

}  // namespace rootsim::dns
