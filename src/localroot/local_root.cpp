#include "localroot/local_root.h"

#include "rss/server.h"
#include "util/strings.h"

namespace rootsim::localroot {

LocalRootService::LocalRootService(const measure::Campaign& campaign,
                                   const measure::VantagePoint& vp,
                                   LocalRootConfig config)
    : campaign_(&campaign), vp_(vp), config_(std::move(config)) {}

RefreshResult LocalRootService::refresh(util::UnixTime now,
                                        const std::vector<ServerFault>& faults) {
  RefreshResult result;
  dnssec::TrustAnchors anchors = campaign_->authority().trust_anchors();
  uint64_t round = campaign_->schedule().round_at(now);

  size_t attempts = 0;
  for (int root_index : config_.server_order) {
    if (attempts >= config_.max_attempts) break;
    ++attempts;
    RefreshAttempt attempt;
    attempt.root_index = root_index;
    attempt.family = config_.preferred_family;
    const auto& server = campaign_->catalog().server(static_cast<size_t>(root_index));
    util::IpAddress address = config_.preferred_family == util::IpFamily::V4
                                  ? server.ipv4
                                  : server.ipv6;
    measure::Prober::FaultKnobs knobs;
    for (const ServerFault& fault : faults)
      if (fault.root_index == root_index) knobs = fault.knobs;

    measure::ProbeRecord probe =
        campaign_->prober().probe(vp_, address, now, round, knobs);
    attempt.transport = probe.transport;
    if (!probe.axfr || probe.axfr->refused) {
      attempt.transfer_failed = true;
      attempt.timed_out = probe.axfr && probe.axfr->timed_out;
      attempt.tcp_refused = probe.axfr && probe.axfr->tcp_refused;
      attempt.detail = attempt.timed_out    ? "transfer timed out"
                       : attempt.tcp_refused ? "path refuses TCP"
                                             : "transfer failed/refused";
      result.attempts.push_back(attempt);
      continue;
    }
    auto candidate =
        dns::Zone::from_axfr(std::move(probe.axfr->records), dns::Name());
    if (!candidate) {
      attempt.transfer_failed = true;
      attempt.detail = "AXFR framing broken";
      result.attempts.push_back(attempt);
      continue;
    }
    // With a configured DS anchor, bootstrap trust from the received copy
    // itself (the IANA trust-anchor path); a failed bootstrap rejects the
    // transfer outright.
    dnssec::TrustAnchors effective_anchors = anchors;
    if (config_.ds_anchor) {
      effective_anchors = dnssec::TrustAnchors::from_ds_anchor(
          *config_.ds_anchor, *candidate, vp_.local_clock(now));
      if (effective_anchors.keys.empty()) {
        attempt.dnssec_verdict = dnssec::ValidationStatus::UnknownKey;
        attempt.detail =
            "DS anchor bootstrap failed -> rescheduling from next server";
        result.attempts.push_back(attempt);
        continue;
      }
    }
    auto validation = dnssec::validate_zone(*candidate, effective_anchors,
                                            vp_.local_clock(now));
    attempt.dnssec_verdict = validation.dominant_failure();
    attempt.zonemd_verdict = validation.zonemd;

    bool dnssec_ok = validation.signature_failures.empty();
    // Require a verifiable ZONEMD once the rollout provides one: reject a
    // verifiable-but-wrong or wrong-serial digest outright. A missing or
    // unsupported record is acceptable, so before the rollout DNSSEC-only
    // validation is accepted (the pre-2023-12-06 reality).
    bool zonemd_ok = validation.zonemd == dnssec::ZonemdStatus::Verified ||
                     validation.zonemd == dnssec::ZonemdStatus::NoZonemd ||
                     validation.zonemd == dnssec::ZonemdStatus::UnsupportedScheme;
    if (dnssec_ok && zonemd_ok) {
      attempt.accepted = true;
      attempt.detail = util::format("accepted serial %u from %c.root",
                                    candidate->serial(), 'a' + root_index);
      result.attempts.push_back(attempt);
      zone_ = std::move(*candidate);
      loaded_at_ = now;
      result.success = true;
      result.serial = zone_->serial();
      return result;
    }
    attempt.detail = util::format(
        "rejected: dnssec=%s zonemd=%s -> rescheduling from next server",
        to_string(attempt.dnssec_verdict).c_str(),
        to_string(attempt.zonemd_verdict).c_str());
    result.attempts.push_back(attempt);
  }
  return result;
}

bool LocalRootService::can_serve(util::UnixTime now) const {
  if (!zone_) return false;
  auto soa = zone_->soa();
  if (!soa) return false;
  // RFC 1035 expire semantics: the copy is unusable this long after load.
  return now - loaded_at_ <= static_cast<int64_t>(soa->expire);
}

std::optional<dns::Message> LocalRootService::resolve(const dns::Message& query,
                                                      util::UnixTime now) const {
  if (!can_serve(now)) return std::nullopt;  // degraded: use upstream
  if (query.questions.empty()) return std::nullopt;
  // Answer from the *validated local copy* through the same engine the real
  // root instances use (RFC 8806: the local service is indistinguishable
  // from a root server for root-zone queries).
  dns::Message response =
      rss::answer_from_zone(*zone_, query, query.questions.front());
  response.ra = true;  // we are the resolver-side service
  return response;
}

}  // namespace rootsim::localroot
