// The declarative scenario layer: everything the campaign used to hard-code
// about *when things happen* — the measurement horizon, the dense-probing
// windows, the zone-pipeline phase times, the fault plan, and every
// service-affecting event — expressed as one plain-data ScenarioSpec.
//
// A spec depends only on util:: vocabulary (times, regions, families); the
// applier (scenario/apply.h) maps it onto the existing layers:
//   * Horizon / dense windows      -> measure::ScheduleConfig
//   * ZoneTimeline                 -> rss::ZoneAuthorityConfig phase times +
//                                     rss::DistributionConfig CZDS window
//   * FaultSpec rows               -> measure::FaultEvent plan (Table 2)
//   * service Events               -> rss::ScriptedOutage + obs::CauseHint +
//                                     netsim::TransportConfig windows
//   * DeploymentOverride           -> netsim::DeploymentSpec what-ifs
//
// The paper's 2023 timeline is just one spec in the library
// (scenario/library.h, `paper_2023()`). The library is its files,
// examples/scenarios/*.scn in the text form of scenario/parser.h, so
// scenarios are data.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/geo.h"
#include "util/timeutil.h"

namespace rootsim::scenario {

struct TimeWindow {
  util::UnixTime start = 0;
  util::UnixTime end = 0;

  bool operator==(const TimeWindow&) const = default;
};

/// The measurement horizon: probe cadence over [start, end), tightened
/// inside the dense windows (the paper ran 30 min baseline, 15 min around
/// the two watched events).
struct Horizon {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  int64_t base_interval_s = 30 * 60;
  int64_t dense_interval_s = 15 * 60;
  std::vector<TimeWindow> dense_windows;

  bool operator==(const Horizon&) const = default;
};

/// Zone-pipeline phase transitions. A zero instant means the phase never
/// happens — the neutral spec publishes a plain signed zone forever.
struct ZoneTimeline {
  /// ZONEMD appears with a private-use hash algorithm (unverifiable).
  util::UnixTime zonemd_private_start = 0;
  /// ZONEMD switches to SHA-384 and validates.
  util::UnixTime zonemd_sha384_start = 0;
  /// KSK rollover instant: the successor KSK signs from here on; both keys
  /// are published (and trusted) around the roll. 0 = no roll.
  util::UnixTime ksk_roll_at = 0;
  /// CZDS exports carry a stale (non-validating) ZONEMD digest during this
  /// window (the paper's 2023-09-21..12-07 observation). Empty = never.
  TimeWindow czds_broken_zonemd;

  bool operator==(const ZoneTimeline&) const = default;
};

/// One service-affecting event on the timeline. Each kind maps to the
/// smallest set of existing-layer knobs that makes the SLO plane see it.
enum class EventKind : uint8_t {
  /// A fraction of a letter's sites goes dark for the window.
  SiteOutage,
  /// Clustered DDoS on one letter: `site_fraction` of its global sites are
  /// overwhelmed (dark), and surviving paths to the letter degrade by
  /// `loss` / `extra_rtt_ms` for the window.
  Ddos,
  /// A route leak detours the letter's traffic: extra path latency (and
  /// optionally loss) for every client during the window, no sites dark.
  RouteLeak,
  /// Plain transport degradation window (loss / jitter / latency) without
  /// an availability story — the knob the paper's §6 detours motivate.
  TransportDegradation,
  /// The letter only begins answering at window.start (dark before).
  LetterAdded,
  /// The operator withdraws at window.start (dark after).
  LetterRemoved,
  /// The letter's service addresses change in the zone at window.start;
  /// until window.end a `site_fraction` of sites is degraded while routes
  /// and caches converge (the b.root 2023 event).
  Renumbering,
  /// Multi-year site-deployment growth: over the window the letter's dark
  /// fraction (sites not yet built) decays from `site_fraction` to zero in
  /// `stages` deterministic batches, optionally confined to one region.
  SiteGrowth,
};

const char* to_string(EventKind kind);

struct Event {
  EventKind kind = EventKind::SiteOutage;
  /// Root letter index 0..12 ('a'..'m'); -1 = every letter.
  int letter = -1;
  /// util::Region index the event is confined to; -1 = everywhere.
  int region = -1;
  /// [start, end); instant-style events key off start.
  TimeWindow window;
  /// Fraction of the letter's sites affected (outage-like kinds).
  double site_fraction = 1.0;
  /// Transport knobs (Ddos / RouteLeak / TransportDegradation).
  double loss = 0.0;
  double extra_rtt_ms = 0.0;
  double jitter_ms = 0.0;
  /// SiteGrowth: number of activation batches across the window.
  int stages = 8;
  /// Attribution label — what incidents caused by this event get blamed on.
  std::string label;

  bool operator==(const Event&) const = default;
};

/// One scheduled validation fault (the vocabulary of the paper's Table 2):
/// a VP with a skewed clock, a VP with faulty RAM flipping transfer bits,
/// or a probe landing on a stale (frozen-zone) instance.
struct FaultSpec {
  enum class Kind : uint8_t { ClockSkew, Bitflip, StaleServer };
  Kind kind = Kind::Bitflip;
  uint32_t vp_id = 0;
  /// Affected root; -1 = all roots probed this round (clock skew).
  int root = -1;
  /// 0 = v4, 1 = v6.
  int family = 0;
  bool old_b_address = false;
  util::UnixTime when = 0;
  int64_t clock_offset_s = 0;
  /// StaleServer: when the instance's zone copy froze. 0 = unset.
  util::UnixTime server_frozen_at = 0;
  /// Table 2 VPid bucket for reporting.
  int table2_vp_id = 0;

  bool operator==(const FaultSpec&) const = default;
};

const char* to_string(FaultSpec::Kind kind);

/// Replaces one letter's per-region site counts (the catalog's Table 4
/// ground truth) — the what-if vehicle for buildouts and unicast twins.
struct DeploymentOverride {
  int letter = 0;  ///< root index 0..12
  std::array<int, util::kRegionCount> global_sites{};
  std::array<int, util::kRegionCount> local_sites{};

  bool operator==(const DeploymentOverride&) const = default;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  uint64_t seed = 42;
  Horizon horizon;
  ZoneTimeline zone;
  std::vector<DeploymentOverride> deployments;
  std::vector<Event> events;
  std::vector<FaultSpec> faults;
  /// Availability probes fail over to the next announced-and-alive site
  /// instead of timing out — the catchment view (buildout/catchment
  /// scenarios) rather than the per-selection view the paper measured.
  bool route_fallback = false;

  bool operator==(const ScenarioSpec&) const = default;
};

/// First Renumbering event's zone-flip instant, 0 if the spec has none
/// (feeds the zone's address switch and the catalog's renumbering time).
util::UnixTime renumbering_time(const ScenarioSpec& spec);

}  // namespace rootsim::scenario
