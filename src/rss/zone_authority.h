// The simulated root zone maintainer.
//
// Produces the root zone as it evolves over a campaign: serials advance
// twice per day (real root zone practice) and the config's phase instants
// drive the content changes — ZONEMD appearing with a private-use algorithm
// then switching to SHA-384, b.root's A/AAAA renumbering, a KSK rollover.
// The paper's Fig. 2 timeline (2023-09-13 / 2023-11-27 / 2023-12-06) is the
// `paper-2023` scenario's ZoneTimeline, not code in this module.
//
// The zone content is synthetic but structurally faithful: apex
// SOA/NS/DNSKEY/NSEC/ZONEMD + RRSIGs, per-TLD delegations with DS and glue,
// signed with our own RSA keys. The TLD set is a deterministic sample (a few
// hundred entries including the .ruhr TLD whose bitflip the paper shows in
// Fig. 10).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dns/zone.h"
#include "dnssec/signer.h"
#include "dnssec/validator.h"
#include "obs/obs.h"
#include "rss/catalog.h"
#include "util/timeutil.h"

namespace rootsim::rss {

/// Most delegations the synthetic root zone can hold: its 36 fixed TLDs plus
/// every distinct generated CVC, CVCV and CVCVC label (19 consonants, 5
/// vowels), less the four fixed TLDs of that shape (com, net, biz, dev).
inline constexpr size_t kMaxTldCount = 36 + 19 * 5 * 19 * (1 + 5 + 5 * 19) - 4;

struct ZoneAuthorityConfig {
  uint64_t seed = 42;
  /// Delegations in the synthetic root zone, at most kMaxTldCount: a larger
  /// count stops the process when the authority is built.
  size_t tld_count = 120;
  size_t rsa_modulus_bits = 768;  // small-but-real keys keep signing fast
  /// Phase instants are scenario data (0 = the phase never happens). The
  /// paper's 2023 dates — ZONEMD private algorithm 09-13, SHA-384 12-06,
  /// b.root renumbering 11-27 — come from the `paper-2023` spec
  /// (examples/scenarios/paper-2023.scn) via scenario::apply().
  util::UnixTime zonemd_private_start = 0;
  util::UnixTime zonemd_sha384_start = 0;
  /// When b.root's A/AAAA flip to the new addresses; 0 = the zone carries
  /// the new addresses for the whole campaign (no renumbering event).
  util::UnixTime broot_change = 0;
  /// KSK rollover instant (0 = no roll). The successor key is pre-published
  /// in the DNSKEY RRset for 30 days before the roll, signs the zone from
  /// the first serial edit at/after it, and the old key stays published for
  /// 30 days after — the RFC 5011-ish dance of the 2018 roll.
  util::UnixTime ksk_roll_at = 0;
};

/// Builds signed root zones for any instant of the campaign.
class ZoneAuthority {
 public:
  /// `obs` (optional) counts zones built (`rss.zones_built`), the signature
  /// memo's lookups (`rss.sig_cache.hits` / `rss.sig_cache.misses`), and
  /// tracks the highest serial published (`rss.zone_serial` gauge).
  explicit ZoneAuthority(const RootCatalog& catalog,
                         ZoneAuthorityConfig config = {}, obs::Obs obs = {});

  /// The serial in force at time `t` (YYYYMMDDNN, two increments per day).
  uint32_t serial_at(util::UnixTime t) const;

  /// The signed zone as published at time `t`. Zones are generated lazily
  /// and cached per serial. Thread-safe: the parallel audit calls it from
  /// every worker, different serials build at the same time, and callers
  /// asking for a serial that is being built wait for that one build.
  const dns::Zone& zone_at(util::UnixTime t) const;

  /// The framed AXFR TCP stream (RFC 5936) of the zone at `t`, built once
  /// per serial and cached. A transfer is then a read of this buffer instead
  /// of a fresh ~450-record encode; fault injection decodes and mutates its
  /// own copy, never the cached image.
  const std::vector<uint8_t>& axfr_stream_at(util::UnixTime t) const;

  /// Trust anchors (the KSK+ZSK DNSKEYs, plus the successor KSK when a
  /// rollover is configured) valid for every serial.
  dnssec::TrustAnchors trust_anchors() const;

  const ZoneAuthorityConfig& config() const { return config_; }
  const std::vector<std::string>& tlds() const { return tlds_; }

  /// The ZONEMD mode in force at `t` (None / PrivateAlgorithm / Sha384).
  dnssec::SigningPolicy::ZonemdMode zonemd_mode_at(util::UnixTime t) const;

 private:
  /// One serial's cache slot. Each artifact is built by the first caller
  /// that needs it, behind its own latch; later callers wait on the latch
  /// and then read the artifact. No latch body calls back into the slot map
  /// or another slot: the zone body waits at most on signature-memo
  /// latches, whose bodies only sign, so latches cannot wait in a cycle.
  struct Slot {
    std::once_flag zone_once;
    std::optional<dns::Zone> zone;
    std::once_flag axfr_once;
    std::vector<uint8_t> axfr;
  };

  /// The slot of `t`'s serial with its zone built.
  Slot& built_slot(util::UnixTime t) const;
  dns::Zone build_unsigned_zone(util::UnixTime t) const;
  dns::Zone build_signed_zone(util::UnixTime t) const;

  const RootCatalog* catalog_;
  ZoneAuthorityConfig config_;
  std::vector<std::string> tlds_;
  dnssec::SigningKey ksk_;
  dnssec::SigningKey zsk_;
  /// Successor KSK; generated (and its RNG stream forked) only when
  /// config.ksk_roll_at > 0 so roll-free configs keep the seed's streams.
  dnssec::SigningKey ksk_next_;
  bool has_ksk_next_ = false;
  obs::Counter* zones_built_ = nullptr;
  obs::Counter* sig_cache_hits_ = nullptr;
  obs::Counter* sig_cache_misses_ = nullptr;
  obs::Gauge* zone_serial_ = nullptr;
  /// The cross-serial signature memo; unbounded, like the zone cache.
  mutable dnssec::SignatureCache signature_cache_;
  // `cache_mu_` is held only to find or insert a slot; builds run outside it
  // behind the slot's latches. std::map nodes are stable, so a slot (and the
  // references zone_at/axfr_stream_at return into it) stays put while other
  // serials are inserted, and `rss.zones_built` counts exactly one build per
  // serial regardless of worker count.
  mutable std::mutex cache_mu_;
  mutable std::map<uint32_t, Slot> slots_;
};

}  // namespace rootsim::rss
