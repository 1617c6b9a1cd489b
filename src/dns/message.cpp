#include "dns/message.h"

#include <algorithm>

#include "dns/wire.h"

namespace rootsim::dns {

std::string rcode_to_string(Rcode rcode) {
  switch (rcode) {
    case Rcode::NoError: return "NOERROR";
    case Rcode::FormErr: return "FORMERR";
    case Rcode::ServFail: return "SERVFAIL";
    case Rcode::NxDomain: return "NXDOMAIN";
    case Rcode::NotImp: return "NOTIMP";
    case Rcode::Refused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

bool Message::dnssec_ok() const {
  for (const auto& rr : additional)
    if (const auto* opt = std::get_if<OptData>(&rr.rdata))
      return opt->dnssec_ok;
  return false;
}

void Message::add_edns(uint16_t udp_payload_size, bool dnssec_ok) {
  ResourceRecord opt;
  opt.name = Name();  // root
  opt.type = RRType::OPT;
  opt.rdata = OptData{udp_payload_size, 0, 0, dnssec_ok};
  additional.push_back(std::move(opt));
}

std::vector<uint8_t> Message::encode() const {
  WireWriter writer;
  encode_into(writer);
  return writer.take();
}

void Message::encode_into(WireWriter& writer) const {
  writer.clear();
  writer.put_u16(id);
  uint16_t flags = 0;
  if (qr) flags |= 0x8000;
  flags |= static_cast<uint16_t>(static_cast<uint16_t>(opcode) << 11);
  if (aa) flags |= 0x0400;
  if (tc) flags |= 0x0200;
  if (rd) flags |= 0x0100;
  if (ra) flags |= 0x0080;
  if (ad) flags |= 0x0020;
  if (cd) flags |= 0x0010;
  flags |= static_cast<uint16_t>(rcode) & 0x000F;
  writer.put_u16(flags);
  writer.put_u16(static_cast<uint16_t>(questions.size()));
  writer.put_u16(static_cast<uint16_t>(answers.size()));
  writer.put_u16(static_cast<uint16_t>(authority.size()));
  writer.put_u16(static_cast<uint16_t>(additional.size()));
  for (const auto& q : questions) {
    writer.put_name(q.qname);
    writer.put_u16(static_cast<uint16_t>(q.qtype));
    writer.put_u16(static_cast<uint16_t>(q.qclass));
  }
  for (const auto& rr : answers) encode_record(writer, rr);
  for (const auto& rr : authority) encode_record(writer, rr);
  for (const auto& rr : additional) encode_record(writer, rr);
}

std::optional<Message> Message::decode(std::span<const uint8_t> data) {
  WireReader reader(data);
  Message msg;
  msg.id = reader.get_u16();
  uint16_t flags = reader.get_u16();
  msg.qr = flags & 0x8000;
  msg.opcode = static_cast<Opcode>((flags >> 11) & 0x0F);
  msg.aa = flags & 0x0400;
  msg.tc = flags & 0x0200;
  msg.rd = flags & 0x0100;
  msg.ra = flags & 0x0080;
  msg.ad = flags & 0x0020;
  msg.cd = flags & 0x0010;
  msg.rcode = static_cast<Rcode>(flags & 0x000F);
  uint16_t qdcount = reader.get_u16();
  uint16_t ancount = reader.get_u16();
  uint16_t nscount = reader.get_u16();
  uint16_t arcount = reader.get_u16();
  if (!reader.ok()) return std::nullopt;
  for (int i = 0; i < qdcount; ++i) {
    Question q;
    q.qname = reader.get_name();
    q.qtype = static_cast<RRType>(reader.get_u16());
    q.qclass = static_cast<RRClass>(reader.get_u16());
    if (!reader.ok()) return std::nullopt;
    msg.questions.push_back(std::move(q));
  }
  // A record takes at least 11 octets (root owner and the fixed fields), so
  // the reservation is bounded by the bytes left, whatever a count claims.
  constexpr size_t kMinRecordWire = 11;
  auto read_section = [&](std::vector<ResourceRecord>& section, uint16_t count) {
    section.reserve(std::min<size_t>(count, reader.remaining() / kMinRecordWire));
    for (int i = 0; i < count; ++i) {
      auto rr = decode_record(reader);
      if (!rr) return false;
      section.push_back(std::move(*rr));
    }
    return true;
  };
  if (!read_section(msg.answers, ancount)) return std::nullopt;
  if (!read_section(msg.authority, nscount)) return std::nullopt;
  if (!read_section(msg.additional, arcount)) return std::nullopt;
  return msg;
}

Message make_query(uint16_t id, const Name& qname, RRType qtype, RRClass qclass,
                   bool dnssec_ok) {
  Message msg;
  msg.id = id;
  msg.rd = false;  // dig to authoritatives: +norecurse semantics
  msg.questions.push_back({qname, qtype, qclass});
  if (dnssec_ok || qclass == RRClass::IN) msg.add_edns(1232, dnssec_ok);
  return msg;
}

}  // namespace rootsim::dns
