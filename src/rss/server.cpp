#include "rss/server.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace rootsim::rss {

RootServerInstance::RootServerInstance(const ZoneAuthority& authority,
                                       const RootCatalog& catalog,
                                       uint32_t root_index, std::string identity,
                                       InstanceBehavior behavior, obs::Obs obs)
    : authority_(&authority),
      catalog_(&catalog),
      root_index_(root_index),
      identity_(std::move(identity)),
      behavior_(behavior),
      telemetry_(obs.rssac002) {
  if (obs.metrics) {
    served_in_ = obs.counter_handle("rss.queries_served", {{"class", "in"}});
    served_ch_ = obs.counter_handle("rss.queries_served", {{"class", "ch"}});
    truncations_ = obs.counter_handle("rss.truncations");
    axfr_served_ = obs.counter_handle("rss.axfr", {{"result", "served"}});
    axfr_refused_ = obs.counter_handle("rss.axfr", {{"result", "refused"}});
  }
}

int64_t site_propagation_lag_s(uint32_t site_id, uint64_t seed) {
  util::Rng rng(seed ^ (static_cast<uint64_t>(site_id) * 0x9e3779b97f4a7c15ULL));
  // Log-normal around ~20 s with a tail into the tens of minutes.
  double lag = rng.lognormal(3.0, 1.2);
  return static_cast<int64_t>(std::min(lag, 3600.0));
}

util::UnixTime RootServerInstance::effective_time(util::UnixTime now) const {
  // A frozen instance keeps serving the zone from its freeze point: the
  // local copy never refreshes, so signatures eventually expire.
  if (behavior_.frozen_at) return *behavior_.frozen_at;
  // Otherwise the instance lags zone distribution by its sync delay.
  return now - behavior_.propagation_lag_s;
}

dns::Message RootServerInstance::answer_chaos(const dns::Message& query,
                                              const dns::Question& question) const {
  dns::Message response;
  response.id = query.id;
  response.qr = true;
  response.aa = true;
  response.questions = query.questions;
  std::string qname = util::to_lower(question.qname.to_string());
  std::string text;
  if (qname == "hostname.bind." || qname == "id.server.") {
    text = identity_;
  } else if (qname == "version.bind." || qname == "version.server.") {
    // Operators run different software; model a stable per-operator banner.
    static const char* kBanners[13] = {
        "NSD 4.8.0",    "BIND 9.18.19", "NSD 4.7.0",   "BIND 9.18.11",
        "NSD 4.6.1",    "BIND 9.18.19", "BIND 9.16.8", "NSD 4.8.0",
        "BIND 9.18.14", "Knot 3.3.2",   "NSD 4.8.0",   "Knot 3.2.9",
        "BIND 9.18.19"};
    text = kBanners[root_index_ % 13];
  } else {
    response.rcode = dns::Rcode::Refused;
    return response;
  }
  dns::ResourceRecord rr;
  rr.name = question.qname;
  rr.type = dns::RRType::TXT;
  rr.rclass = dns::RRClass::CH;
  rr.ttl = 0;
  rr.rdata = dns::TxtData{{text}};
  response.answers.push_back(std::move(rr));
  return response;
}

dns::Message RootServerInstance::answer_standard(const dns::Message& query,
                                                 const dns::Question& question,
                                                 util::UnixTime now) const {
  return answer_from_zone(authority_->zone_at(effective_time(now)), query,
                          question);
}

namespace {

// Appends an RRset's records to a message section, one copy of each rdata.
void append_rrset(std::vector<dns::ResourceRecord>& section,
                  const dns::RRset& set) {
  for (const auto& rdata : set.rdatas)
    section.push_back({set.name, set.type, set.rclass, set.ttl, rdata});
}

}  // namespace

dns::Message answer_from_zone(const dns::Zone& zone, const dns::Message& query,
                              const dns::Question& question) {
  dns::Message response;
  response.id = query.id;
  response.qr = true;
  response.questions = query.questions;
  bool want_dnssec = query.dnssec_ok();
  if (want_dnssec) response.add_edns(1232, true);

  auto attach_rrsigs = [&](std::vector<dns::ResourceRecord>& section,
                           const dns::Name& owner, dns::RRType covered) {
    if (!want_dnssec) return;
    const dns::RRset* sigs = zone.find(owner, dns::RRType::RRSIG);
    if (!sigs) return;
    for (const auto& rdata : sigs->rdatas) {
      const auto* sig = std::get_if<dns::RrsigData>(&rdata);
      if (!sig || sig->type_covered != covered) continue;
      section.push_back({owner, dns::RRType::RRSIG, dns::RRClass::IN, sigs->ttl,
                         rdata});
    }
  };

  const dns::RRset* set = zone.find(question.qname, question.qtype);
  if (set) {
    bool delegation_data =
        !(question.qname == zone.origin()) && question.qtype == dns::RRType::NS;
    response.aa = !delegation_data;
    append_rrset(response.answers, *set);
    attach_rrsigs(response.answers, question.qname, question.qtype);
    return response;
  }

  // Name exists with other types, or delegation, or NXDOMAIN.
  if (zone.contains_name(question.qname)) {
    const dns::RRset* delegation = zone.find(question.qname, dns::RRType::NS);
    if (delegation && !(question.qname == zone.origin())) {
      // Referral.
      response.aa = false;
      append_rrset(response.authority, *delegation);
      const dns::RRset* ds = zone.find(question.qname, dns::RRType::DS);
      if (ds) append_rrset(response.authority, *ds);
      attach_rrsigs(response.authority, question.qname, dns::RRType::DS);
      return response;
    }
    // NODATA: SOA in authority.
    response.aa = true;
    const dns::RRset* soa = zone.find(zone.origin(), dns::RRType::SOA);
    if (soa) append_rrset(response.authority, *soa);
    attach_rrsigs(response.authority, zone.origin(), dns::RRType::SOA);
    return response;
  }

  // Below a delegation? Refer to the closest enclosing delegation.
  dns::Name cut = question.qname;
  while (!cut.is_root()) {
    const dns::RRset* delegation = zone.find(cut, dns::RRType::NS);
    if (delegation) {
      response.aa = false;
      append_rrset(response.authority, *delegation);
      return response;
    }
    cut = cut.parent();
  }

  response.aa = true;
  response.rcode = dns::Rcode::NxDomain;
  const dns::RRset* soa = zone.find(zone.origin(), dns::RRType::SOA);
  if (soa) append_rrset(response.authority, *soa);
  attach_rrsigs(response.authority, zone.origin(), dns::RRType::SOA);
  // RFC 4035 §3.1.3.2: prove the name's nonexistence with the NSEC record
  // covering the gap the qname falls into (signed zones only).
  if (want_dnssec) {
    if (const dns::RRset* covering = zone.covering_nsec(question.qname)) {
      append_rrset(response.authority, *covering);
      attach_rrsigs(response.authority, covering->name, dns::RRType::NSEC);
    }
  }
  return response;
}

dns::Message apply_udp_truncation(const dns::Message& response, size_t max_size) {
  // Size check via a reusable scratch writer: the common (fits-in-UDP) case
  // allocates nothing. thread_local keeps parallel audit workers apart.
  thread_local dns::WireWriter scratch;
  response.encode_into(scratch);
  if (scratch.size() <= max_size) return response;
  dns::Message truncated;
  truncated.id = response.id;
  truncated.qr = true;
  truncated.aa = response.aa;
  truncated.tc = true;
  truncated.rcode = response.rcode;
  truncated.questions = response.questions;
  // Keep the OPT record so the client sees our EDNS support.
  for (const auto& rr : response.additional)
    if (rr.type == dns::RRType::OPT) truncated.additional.push_back(rr);
  return truncated;
}

dns::Message RootServerInstance::handle_query(const dns::Message& query,
                                              util::UnixTime now) const {
  if (query.questions.empty()) {
    dns::Message response;
    response.id = query.id;
    response.qr = true;
    response.rcode = dns::Rcode::FormErr;
    obs::inc(served_in_);
    return response;
  }
  const dns::Question& question = query.questions.front();
  if (question.qclass == dns::RRClass::CH) {
    obs::inc(served_ch_);
    return answer_chaos(query, question);
  }
  obs::inc(served_in_);
  return answer_standard(query, question, now);
}

size_t advertised_udp_payload(const dns::Message& query) {
  // RFC 6891 §6.2.3: the OPT TTL-class field carries the requestor's buffer
  // size. A compliant query has exactly one OPT; on a malformed query with
  // several, the first one read off the wire governs (deterministic, and
  // what lenient real-world responders do). Sub-512 advertisements are
  // raised to the RFC 1035 baseline every implementation must accept.
  for (const auto& rr : query.additional)
    if (const auto* opt = std::get_if<dns::OptData>(&rr.rdata))
      return std::max<size_t>(512, opt->udp_payload_size);
  return 512;
}

dns::Message apply_udp_truncation(const dns::Message& response,
                                  const dns::Message& query,
                                  size_t path_mtu_clamp) {
  size_t max_size = advertised_udp_payload(query);
  // A path MTU below the negotiated buffer clamps it — but no lower than
  // the 512-octet floor every path is required to carry.
  if (path_mtu_clamp != 0)
    max_size = std::max<size_t>(512, std::min(max_size, path_mtu_clamp));
  return apply_udp_truncation(response, max_size);
}

dns::Message RootServerInstance::handle_udp_query(const dns::Message& query,
                                                  util::UnixTime now,
                                                  size_t path_mtu_clamp) const {
  dns::Message response = handle_query(query, now);
  // RFC 6891 §6.2.5: the responder honours the requestor's advertised
  // buffer; without EDNS the classic 512-octet limit applies.
  dns::Message udp_response =
      apply_udp_truncation(response, query, path_mtu_clamp);
  if (udp_response.tc && !response.tc) obs::inc(truncations_);
  return udp_response;
}

std::vector<dns::ResourceRecord> RootServerInstance::handle_axfr(
    util::UnixTime now) const {
  if (!behavior_.allow_axfr) {
    obs::inc(axfr_refused_);
    return {};
  }
  obs::inc(axfr_served_);
  return authority_->zone_at(effective_time(now)).axfr_records();
}

std::span<const uint8_t> RootServerInstance::handle_axfr_stream(
    util::UnixTime now) const {
  if (!behavior_.allow_axfr) {
    obs::inc(axfr_refused_);
    return {};
  }
  obs::inc(axfr_served_);
  return authority_->axfr_stream_at(effective_time(now));
}

}  // namespace rootsim::rss
