#include "resolver/priming.h"

#include "rss/endpoint.h"
#include "rss/server.h"

namespace rootsim::resolver {

std::vector<RootHint> builtin_hints(const rss::RootCatalog& catalog,
                                    util::UnixTime as_of) {
  std::vector<RootHint> hints;
  const bool pre_change = as_of < catalog.renumbering().zone_change_time;
  for (const auto& server : catalog.servers()) {
    RootHint hint;
    hint.name = *dns::Name::parse(server.name);
    if (server.letter == 'b' && pre_change) {
      hint.ipv4 = catalog.renumbering().old_ipv4;
      hint.ipv6 = catalog.renumbering().old_ipv6;
    } else {
      hint.ipv4 = server.ipv4;
      hint.ipv6 = server.ipv6;
    }
    hints.push_back(std::move(hint));
  }
  return hints;
}

PrimingResolver::PrimingResolver(const measure::Campaign& campaign,
                                 const measure::VantagePoint& vp,
                                 std::vector<RootHint> hints,
                                 PrimingConfig config)
    : campaign_(&campaign),
      vp_(vp),
      working_set_(std::move(hints)),
      config_(config) {}

bool PrimingResolver::ensure_primed(util::UnixTime now) {
  // Re-prime when the cached NS set ages beyond this (the root NS TTL is
  // 518400 s = 6 days; conservative implementations re-prime daily).
  constexpr int64_t kRefreshIntervalS = 518400;
  if (!config_.primes) return false;
  if (last_primed_ != 0 && now - last_primed_ < kRefreshIntervalS)
    return false;
  // RFC 8109 §3: send ". NS" with RD=0 to one of the known addresses; we use
  // the first hint of the preferred family (real resolvers randomize).
  std::optional<util::IpAddress> target;
  for (const auto& hint : working_set_) {
    target = config_.preferred_family == util::IpFamily::V4 ? hint.ipv4
                                                            : hint.ipv6;
    if (target) break;
  }
  if (!target) return false;

  // Full wire exchange against the selected anycast instance: one transport
  // path serves the whole priming conversation (NS + follow-up lookups),
  // exactly one route selection like any other client conversation.
  int root_index = campaign_->catalog().index_of_address(*target);
  if (root_index < 0) return false;
  const netsim::Transport& transport = campaign_->transport();
  netsim::Transport::Path path = transport.open_path(
      vp_.view, static_cast<uint32_t>(root_index), target->family(),
      campaign_->schedule().round_at(now));
  const netsim::AnycastSite& site =
      campaign_->topology().sites[path.site_id()];
  rss::RootServerInstance instance(campaign_->authority(), campaign_->catalog(),
                                   static_cast<uint32_t>(root_index),
                                   site.identity);
  rss::InstanceEndpoint endpoint(instance);
  dns::Message query = dns::make_query(static_cast<uint16_t>(now & 0xFFFF),
                                       dns::Name(), dns::RRType::NS);
  netsim::ExchangeOutcome ns_outcome =
      transport.exchange(path, endpoint, query, now);
  ++priming_queries_sent_;
  if (!ns_outcome.delivered || ns_outcome.response.rcode != dns::Rcode::NoError)
    return false;

  // Rebuild the working set from the NS answer + follow-up A/AAAA lookups
  // (RFC 8109 §3.3: address records may come in additional or via queries).
  std::vector<RootHint> fresh;
  for (const auto& rr : ns_outcome.response.answers) {
    const auto* ns = std::get_if<dns::NsData>(&rr.rdata);
    if (!ns) continue;
    RootHint hint;
    hint.name = ns->nsdname;
    for (dns::RRType qtype : {dns::RRType::A, dns::RRType::AAAA}) {
      dns::Message addr_query = dns::make_query(1, ns->nsdname, qtype);
      netsim::ExchangeOutcome addr_outcome =
          transport.exchange(path, endpoint, addr_query, now);
      if (!addr_outcome.delivered) continue;
      for (const auto& answer : addr_outcome.response.answers) {
        if (const auto* a = std::get_if<dns::AData>(&answer.rdata))
          hint.ipv4 = a->address;
        if (const auto* aaaa = std::get_if<dns::AaaaData>(&answer.rdata))
          hint.ipv6 = aaaa->address;
      }
    }
    fresh.push_back(std::move(hint));
  }
  if (fresh.size() < 13) return false;  // incomplete priming: keep old set
  working_set_ = std::move(fresh);
  last_primed_ = now;
  return true;
}

std::optional<util::IpAddress> PrimingResolver::address_of(
    char letter, util::IpFamily family) const {
  dns::Name name =
      *dns::Name::parse(std::string(1, letter) + ".root-servers.net.");
  for (const auto& hint : working_set_)
    if (hint.name == name)
      return family == util::IpFamily::V4 ? hint.ipv4 : hint.ipv6;
  return std::nullopt;
}

std::optional<util::IpAddress> PrimingResolver::next_target(util::UnixTime now) {
  ensure_primed(now);
  if (working_set_.empty()) return std::nullopt;
  for (size_t i = 0; i < working_set_.size(); ++i) {
    const RootHint& hint = working_set_[round_robin_++ % working_set_.size()];
    auto address = config_.preferred_family == util::IpFamily::V4 ? hint.ipv4
                                                                  : hint.ipv6;
    if (address) return address;
  }
  return std::nullopt;
}

}  // namespace rootsim::resolver
