#include "dns/zone.h"

#include <algorithm>

#include "crypto/encoding.h"
#include "util/strings.h"

namespace rootsim::dns {

bool RRset::operator==(const RRset& other) const {
  if (!(name == other.name) || type != other.type || rclass != other.rclass ||
      ttl != other.ttl || rdatas.size() != other.rdatas.size())
    return false;
  auto multiplicity = [](const std::vector<Rdata>& haystack, const Rdata& x) {
    return std::count(haystack.begin(), haystack.end(), x);
  };
  for (const auto& rdata : rdatas)
    if (multiplicity(rdatas, rdata) != multiplicity(other.rdatas, rdata))
      return false;
  return true;
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas.size());
  for (const auto& rdata : rdatas)
    out.push_back(ResourceRecord{name, type, rclass, ttl, rdata});
  return out;
}

void Zone::add(ResourceRecord rr) {
  const KeyRef key{rr.name, rr.type};
  // Against the last key first: a canonical-order stream extends the last
  // RRset or starts the next one without a tree search.
  auto it = sets_.end();
  int order = sets_.empty() ? 1 : KeyOrder::compare(key, std::prev(it)->first);
  if (order == 0) {
    --it;
  } else if (order < 0) {
    it = sets_.lower_bound(key);  // not end(): the last key is greater
    order = KeyOrder::compare(key, it->first);
  }
  if (order != 0) {
    // `it` is the first key after this one, or end().
    RRset& set = sets_.emplace_hint(it, Key{rr.name, rr.type}, RRset{})->second;
    set.name = std::move(rr.name);
    set.type = rr.type;
    set.rclass = rr.rclass;
    set.ttl = rr.ttl;
    set.rdatas.push_back(std::move(rr.rdata));
    return;
  }
  auto& rdatas = it->second.rdatas;
  if (std::find(rdatas.begin(), rdatas.end(), rr.rdata) == rdatas.end())
    rdatas.push_back(std::move(rr.rdata));
}

bool Zone::remove_rrset(const Name& name, RRType type) {
  auto it = sets_.find(KeyRef{name, type});
  if (it == sets_.end()) return false;
  sets_.erase(it);
  return true;
}

bool Zone::remove(const ResourceRecord& rr) {
  auto it = sets_.find(KeyRef{rr.name, rr.type});
  if (it == sets_.end()) return false;
  auto& rdatas = it->second.rdatas;
  auto pos = std::find(rdatas.begin(), rdatas.end(), rr.rdata);
  if (pos == rdatas.end()) return false;
  rdatas.erase(pos);
  if (rdatas.empty()) sets_.erase(it);
  return true;
}

const RRset* Zone::find(const Name& name, RRType type) const {
  auto it = sets_.find(KeyRef{name, type});
  return it == sets_.end() ? nullptr : &it->second;
}

std::vector<const RRset*> Zone::rrsets() const {
  std::vector<const RRset*> out;
  out.reserve(sets_.size());
  for (const auto& [key, set] : sets_) out.push_back(&set);
  return out;
}

std::vector<const RRset*> Zone::rrsets_at(const Name& name) const {
  std::vector<const RRset*> out;
  for (auto it = sets_.lower_bound(first_key(name));
       it != sets_.end() && it->first.name == name; ++it)
    out.push_back(&it->second);
  return out;
}

std::optional<SoaData> Zone::soa() const {
  const RRset* set = find(origin_, RRType::SOA);
  if (!set || set->rdatas.empty()) return std::nullopt;
  if (const auto* soa = std::get_if<SoaData>(&set->rdatas.front())) return *soa;
  return std::nullopt;
}

uint32_t Zone::serial() const {
  auto s = soa();
  return s ? s->serial : 0;
}

size_t Zone::record_count() const {
  size_t count = 0;
  for (const auto& [key, set] : sets_) count += set.rdatas.size();
  return count;
}

bool Zone::contains_name(const Name& name) const {
  auto it = sets_.lower_bound(first_key(name));
  return it != sets_.end() && it->first.name == name;
}

const RRset* Zone::covering_nsec(const Name& name) const {
  // Every key before lower_bound(name, 0) has an owner below `name`.
  for (auto it = sets_.lower_bound(first_key(name)); it != sets_.begin();) {
    --it;
    if (it->first.type != RRType::NSEC) continue;
    const auto* nsec = std::get_if<NsecData>(&it->second.rdatas.front());
    if (!nsec) continue;
    const bool before_next =
        name.canonical_compare(nsec->next) < 0 || nsec->next.is_root();
    return before_next ? &it->second : nullptr;
  }
  return nullptr;
}

std::vector<Name> Zone::authoritative_names() const {
  std::vector<Name> out;
  for (const auto& [key, set] : sets_) {
    if (out.empty() || !(out.back() == key.name)) out.push_back(key.name);
  }
  return out;
}

std::vector<ResourceRecord> Zone::axfr_records() const {
  std::vector<ResourceRecord> out;
  const RRset* soa_set = find(origin_, RRType::SOA);
  if (!soa_set || soa_set->rdatas.empty()) return out;
  out.reserve(record_count() + 1);
  ResourceRecord soa_rr{soa_set->name, RRType::SOA, soa_set->rclass, soa_set->ttl,
                        soa_set->rdatas.front()};
  out.push_back(soa_rr);
  for (const auto& [key, set] : sets_) {
    if (&set == soa_set) continue;
    for (const auto& rdata : set.rdatas)
      out.push_back(ResourceRecord{set.name, set.type, set.rclass, set.ttl, rdata});
  }
  out.push_back(std::move(soa_rr));
  return out;
}

std::optional<Zone> Zone::from_axfr(std::vector<ResourceRecord> records,
                                    const Name& origin) {
  if (records.size() < 2) return std::nullopt;
  const ResourceRecord& first = records.front();
  const ResourceRecord& last = records.back();
  if (first.type != RRType::SOA || last.type != RRType::SOA) return std::nullopt;
  if (!(first.name == origin) || !(first == last)) return std::nullopt;
  Zone zone(origin);
  records.pop_back();
  for (auto& rr : records) zone.add(std::move(rr));
  return zone;
}

std::string Zone::to_master_file() const {
  std::string out;
  out += util::format("$ORIGIN %s\n", origin_.to_string().c_str());
  for (const auto& [key, set] : sets_)
    for (const auto& record : set.to_records()) {
      out += record_to_string(record);
      out += '\n';
    }
  return out;
}

namespace {

// Splits a zone-file line into tokens, honoring "quoted strings" and ;comments.
std::vector<std::string> tokenize_zone_line(std::string_view line, bool* bad) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ';') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    std::string token;
    if (c == '"') {
      ++i;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          token += line[i + 1];
          i += 2;
          continue;
        }
        if (line[i] == '"') {
          ++i;
          closed = true;
          break;
        }
        token += line[i++];
      }
      if (!closed && bad) *bad = true;
      tokens.push_back("\"" + token);  // marker so TXT keeps empty strings
    } else {
      while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
             line[i] != ';')
        token += line[i++];
      tokens.push_back(std::move(token));
    }
  }
  return tokens;
}

std::optional<uint32_t> parse_u32(const std::string& s) {
  if (s.empty()) return std::nullopt;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 0xFFFFFFFFULL) return std::nullopt;
  }
  return static_cast<uint32_t>(value);
}

std::optional<Name> parse_relative_name(const std::string& token, const Name& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') return Name::parse(token);
  // Relative: append origin.
  auto partial = Name::parse(token + ".");
  if (!partial) return std::nullopt;
  std::vector<std::string> labels = partial->labels();
  labels.insert(labels.end(), origin.labels().begin(), origin.labels().end());
  return Name::from_labels(std::move(labels));
}

}  // namespace

std::optional<Zone> Zone::parse_master_file(std::string_view text,
                                            std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<Zone> {
    if (error) *error = msg;
    return std::nullopt;
  };
  Name origin;  // default: root
  uint32_t default_ttl = 86400;
  std::vector<ResourceRecord> records;
  std::optional<Name> last_owner;

  size_t line_number = 0;
  for (const auto& raw_line : util::split(text, '\n')) {
    ++line_number;
    bool bad = false;
    bool line_indented =
        !raw_line.empty() && std::isspace(static_cast<unsigned char>(raw_line[0]));
    auto tokens = tokenize_zone_line(raw_line, &bad);
    if (bad) return fail(util::format("line %zu: unterminated string", line_number));
    if (tokens.empty()) continue;
    if (tokens[0] == "$ORIGIN" || tokens[0] == "$TTL") {
      const char* directive = tokens[0].c_str();
      if (tokens.size() < 2)
        return fail(util::format("line %zu: %s missing argument", line_number,
                                 directive));
      if (tokens.size() > 2)
        return fail(util::format("line %zu: unexpected '%s' after %s",
                                 line_number, tokens[2].c_str(), directive));
      if (tokens[0] == "$ORIGIN") {
        auto parsed = Name::parse(tokens[1]);
        if (!parsed)
          return fail(util::format("line %zu: $ORIGIN bad name", line_number));
        origin = *parsed;
      } else {
        auto ttl = parse_u32(tokens[1]);
        if (!ttl)
          return fail(util::format("line %zu: $TTL bad value", line_number));
        default_ttl = *ttl;
      }
      continue;
    }

    size_t cursor = 0;
    Name owner;
    if (line_indented) {
      if (!last_owner) return fail(util::format("line %zu: no previous owner", line_number));
      owner = *last_owner;
    } else {
      auto parsed = parse_relative_name(tokens[cursor], origin);
      if (!parsed) return fail(util::format("line %zu: bad owner name", line_number));
      owner = *parsed;
      ++cursor;
    }
    last_owner = owner;

    // [TTL] [class] type — TTL and class may appear in either order.
    uint32_t ttl = default_ttl;
    RRClass rclass = RRClass::IN;
    for (int pass = 0; pass < 2 && cursor < tokens.size(); ++pass) {
      if (auto maybe_ttl = parse_u32(tokens[cursor])) {
        ttl = *maybe_ttl;
        ++cursor;
      } else if (tokens[cursor] == "IN" || tokens[cursor] == "CH") {
        rclass = tokens[cursor] == "IN" ? RRClass::IN : RRClass::CH;
        ++cursor;
      }
    }
    if (cursor >= tokens.size())
      return fail(util::format("line %zu: missing type", line_number));
    RRType type = rrtype_from_string(tokens[cursor]);
    if (type == RRType::ANY)
      return fail(util::format("line %zu: unsupported type '%s'", line_number,
                               tokens[cursor].c_str()));
    ++cursor;
    std::vector<std::string> args(tokens.begin() + static_cast<long>(cursor),
                                  tokens.end());
    auto need = [&](size_t count) { return args.size() >= count; };
    // Tokens the rdata read; any left over is an error, never dropped.
    size_t used = args.size();
    Rdata rdata;
    switch (type) {
      case RRType::SOA: {
        if (!need(7)) return fail(util::format("line %zu: SOA needs 7 fields", line_number));
        SoaData soa;
        auto mname = parse_relative_name(args[0], origin);
        auto rname = parse_relative_name(args[1], origin);
        auto serial = parse_u32(args[2]);
        auto refresh = parse_u32(args[3]);
        auto retry = parse_u32(args[4]);
        auto expire = parse_u32(args[5]);
        auto minimum = parse_u32(args[6]);
        if (!mname || !rname || !serial || !refresh || !retry || !expire || !minimum)
          return fail(util::format("line %zu: bad SOA", line_number));
        soa.mname = *mname;
        soa.rname = *rname;
        soa.serial = *serial;
        soa.refresh = *refresh;
        soa.retry = *retry;
        soa.expire = *expire;
        soa.minimum = *minimum;
        rdata = soa;
        used = 7;
        break;
      }
      case RRType::NS: {
        if (!need(1)) return fail(util::format("line %zu: NS needs a name", line_number));
        auto target = parse_relative_name(args[0], origin);
        if (!target) return fail(util::format("line %zu: bad NS target", line_number));
        rdata = NsData{*target};
        used = 1;
        break;
      }
      case RRType::CNAME: {
        if (!need(1)) return fail(util::format("line %zu: CNAME needs a name", line_number));
        auto target = parse_relative_name(args[0], origin);
        if (!target) return fail(util::format("line %zu: bad CNAME target", line_number));
        rdata = CnameData{*target};
        used = 1;
        break;
      }
      case RRType::A: {
        if (!need(1)) return fail(util::format("line %zu: A needs an address", line_number));
        auto addr = util::IpAddress::parse(args[0]);
        if (!addr || !addr->is_v4())
          return fail(util::format("line %zu: bad A address", line_number));
        rdata = AData{*addr};
        used = 1;
        break;
      }
      case RRType::AAAA: {
        if (!need(1)) return fail(util::format("line %zu: AAAA needs an address", line_number));
        auto addr = util::IpAddress::parse(args[0]);
        if (!addr || !addr->is_v6())
          return fail(util::format("line %zu: bad AAAA address", line_number));
        rdata = AaaaData{*addr};
        used = 1;
        break;
      }
      case RRType::TXT: {
        TxtData txt;
        for (const auto& arg : args)
          txt.strings.push_back(arg.empty() || arg[0] != '"' ? arg : arg.substr(1));
        rdata = txt;
        break;
      }
      case RRType::MX: {
        if (!need(2)) return fail(util::format("line %zu: MX needs 2 fields", line_number));
        auto pref = parse_u32(args[0]);
        auto target = parse_relative_name(args[1], origin);
        if (!pref || *pref > 0xFFFF || !target)
          return fail(util::format("line %zu: bad MX", line_number));
        rdata = MxData{static_cast<uint16_t>(*pref), *target};
        used = 2;
        break;
      }
      case RRType::DS: {
        if (!need(4)) return fail(util::format("line %zu: DS needs 4 fields", line_number));
        auto tag = parse_u32(args[0]);
        auto alg = parse_u32(args[1]);
        auto dt = parse_u32(args[2]);
        // RFC 4034 §5.3: the digest may hold whitespace.
        std::string hex;
        for (size_t i = 3; i < args.size(); ++i) hex += args[i];
        auto digest = crypto::from_hex(hex);
        if (!tag || *tag > 0xFFFF || !alg || *alg > 255 || !dt || *dt > 255 || !digest)
          return fail(util::format("line %zu: bad DS", line_number));
        rdata = DsData{static_cast<uint16_t>(*tag), static_cast<uint8_t>(*alg),
                       static_cast<uint8_t>(*dt), *digest};
        break;
      }
      case RRType::DNSKEY: {
        if (!need(4)) return fail(util::format("line %zu: DNSKEY needs 4 fields", line_number));
        auto flags = parse_u32(args[0]);
        auto proto = parse_u32(args[1]);
        auto alg = parse_u32(args[2]);
        std::string b64;
        for (size_t i = 3; i < args.size(); ++i) b64 += args[i];
        auto key_bytes = crypto::from_base64(b64);
        if (!flags || *flags > 0xFFFF || !proto || *proto > 255 || !alg ||
            *alg > 255 || !key_bytes)
          return fail(util::format("line %zu: bad DNSKEY", line_number));
        DnskeyData key;
        key.flags = static_cast<uint16_t>(*flags);
        key.protocol = static_cast<uint8_t>(*proto);
        key.algorithm = static_cast<uint8_t>(*alg);
        key.public_key = *key_bytes;
        rdata = key;
        break;
      }
      case RRType::RRSIG: {
        if (!need(9)) return fail(util::format("line %zu: RRSIG needs 9 fields", line_number));
        RrsigData sig;
        sig.type_covered = rrtype_from_string(args[0]);
        if (sig.type_covered == RRType::ANY)
          return fail(util::format("line %zu: bad RRSIG type covered '%s'",
                                   line_number, args[0].c_str()));
        auto alg = parse_u32(args[1]);
        auto labels = parse_u32(args[2]);
        auto ottl = parse_u32(args[3]);
        auto exp = parse_u32(args[4]);
        auto inc = parse_u32(args[5]);
        auto tag = parse_u32(args[6]);
        auto signer = parse_relative_name(args[7], origin);
        std::string b64;
        for (size_t i = 8; i < args.size(); ++i) b64 += args[i];
        auto sig_bytes = crypto::from_base64(b64);
        if (!alg || *alg > 255 || !labels || *labels > 255 || !ottl || !exp ||
            !inc || !tag || *tag > 0xFFFF || !signer || !sig_bytes)
          return fail(util::format("line %zu: bad RRSIG", line_number));
        sig.algorithm = static_cast<uint8_t>(*alg);
        sig.labels = static_cast<uint8_t>(*labels);
        sig.original_ttl = *ottl;
        sig.expiration = *exp;
        sig.inception = *inc;
        sig.key_tag = static_cast<uint16_t>(*tag);
        sig.signer = *signer;
        sig.signature = *sig_bytes;
        rdata = sig;
        break;
      }
      case RRType::NSEC: {
        if (!need(1)) return fail(util::format("line %zu: NSEC needs a next name", line_number));
        NsecData nsec;
        auto next = parse_relative_name(args[0], origin);
        if (!next) return fail(util::format("line %zu: bad NSEC next", line_number));
        nsec.next = *next;
        for (size_t i = 1; i < args.size(); ++i) {
          RRType t = rrtype_from_string(args[i]);
          if (t == RRType::ANY)
            return fail(util::format("line %zu: bad NSEC type '%s'", line_number,
                                     args[i].c_str()));
          nsec.types.push_back(t);
        }
        rdata = nsec;
        break;
      }
      case RRType::ZONEMD: {
        if (!need(4)) return fail(util::format("line %zu: ZONEMD needs 4 fields", line_number));
        auto serial = parse_u32(args[0]);
        auto scheme = parse_u32(args[1]);
        auto alg = parse_u32(args[2]);
        // RFC 8976 §2.3: the digest may hold whitespace.
        std::string hex;
        for (size_t i = 3; i < args.size(); ++i) hex += args[i];
        auto digest = crypto::from_hex(hex);
        if (!serial || !scheme || *scheme > 255 || !alg || *alg > 255 || !digest)
          return fail(util::format("line %zu: bad ZONEMD", line_number));
        rdata = ZonemdData{*serial, static_cast<uint8_t>(*scheme),
                           static_cast<uint8_t>(*alg), *digest};
        break;
      }
      default:
        return fail(util::format("line %zu: type %s not supported in zone files",
                                 line_number, rrtype_to_string(type).c_str()));
    }
    if (used < args.size())
      return fail(util::format("line %zu: unexpected '%s' after the %s rdata",
                               line_number, args[used].c_str(),
                               rrtype_to_string(type).c_str()));
    records.push_back(ResourceRecord{owner, type, rclass, ttl, std::move(rdata)});
  }

  // The zone origin is the SOA owner.
  Name zone_origin = origin;
  for (const auto& rr : records)
    if (rr.type == RRType::SOA) {
      zone_origin = rr.name;
      break;
    }
  Zone zone(zone_origin);
  for (auto& rr : records) zone.add(std::move(rr));
  if (!zone.soa()) return fail("zone has no SOA");
  return zone;
}

}  // namespace rootsim::dns
