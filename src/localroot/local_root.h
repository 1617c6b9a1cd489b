// A local root zone service (RFC 7706 / RFC 8806) with ZONEMD-verified
// refresh — the consumer the paper argues ZONEMD exists for.
//
// A resolver operator runs a local copy of the root zone to cut RTTs and
// root-server load (Allman's proposal, Kumari/Hoffman RFCs). The hazard is
// serving a wrong copy: transfers can arrive bitflipped or stale (paper
// Table 2). This component implements the paper's recommended behaviour
// ("implement appropriate fallback mechanisms such as rescheduling a zone
// transfer from a different root server"):
//
//   1. refresh by AXFR from a configurable root server order;
//   2. fully validate each candidate copy — RRSIGs against the trust
//      anchors, and the ZONEMD digest when the record is verifiable;
//   3. on validation failure, fall back to the next server (and record why);
//   4. never serve a copy that failed validation; keep the previous good
//      copy until its SOA expire time, then go degraded (upstream fallback).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dnssec/validator.h"
#include "measure/campaign.h"

namespace rootsim::localroot {

/// Why a refresh attempt against one server was rejected or accepted.
struct RefreshAttempt {
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  bool old_b_address = false;
  bool transfer_failed = false;
  /// The transfer never arrived because the transport gave up (SYN loss) or
  /// the path refuses TCP — as opposed to a server-side AXFR refusal.
  bool timed_out = false;
  bool tcp_refused = false;
  dnssec::ValidationStatus dnssec_verdict = dnssec::ValidationStatus::Valid;
  dnssec::ZonemdStatus zonemd_verdict = dnssec::ZonemdStatus::NoZonemd;
  bool accepted = false;
  std::string detail;
  /// Wire-level accounting of the probe that carried this attempt.
  netsim::TransportStats transport;
};

struct RefreshResult {
  bool success = false;
  uint32_t serial = 0;
  std::vector<RefreshAttempt> attempts;
};

struct LocalRootConfig {
  /// Server preference order (catalog indices 0..12).
  std::vector<int> server_order = {1, 10, 5, 3, 0, 2, 4, 6, 7, 8, 9, 11, 12};
  util::IpFamily preferred_family = util::IpFamily::V6;
  /// Maximum servers tried per refresh before giving up.
  size_t max_attempts = 5;
  /// If set, trust is bootstrapped per transfer from this DS record (the
  /// IANA-trust-anchor path): the received DNSKEY RRset must contain a KSK
  /// matching the DS and vouching for the key set. If unset, the campaign
  /// authority's keys are trusted directly (test convenience).
  std::optional<dns::DsData> ds_anchor;
};

/// The local root service.
class LocalRootService {
 public:
  LocalRootService(const measure::Campaign& campaign,
                   const measure::VantagePoint& vp, LocalRootConfig config = {});

  /// Attempts a refresh at time `now`. Fault knobs let tests/examples make
  /// specific servers serve stale or corrupted copies.
  struct ServerFault {
    int root_index = -1;
    measure::Prober::FaultKnobs knobs;
  };
  RefreshResult refresh(util::UnixTime now,
                        const std::vector<ServerFault>& faults = {});

  /// True if a validated copy is loaded and not expired at `now`.
  bool can_serve(util::UnixTime now) const;

  /// Answers a query from the local copy; nullopt when degraded (caller
  /// should fall back to upstream resolution — RFC 8806 §3).
  std::optional<dns::Message> resolve(const dns::Message& query,
                                      util::UnixTime now) const;

  const std::optional<dns::Zone>& zone() const { return zone_; }
  uint32_t serial() const { return zone_ ? zone_->serial() : 0; }
  util::UnixTime loaded_at() const { return loaded_at_; }

 private:
  const measure::Campaign* campaign_;
  measure::VantagePoint vp_;
  LocalRootConfig config_;
  std::optional<dns::Zone> zone_;
  util::UnixTime loaded_at_ = 0;
};

}  // namespace rootsim::localroot
