// Simulated Internet topology: interconnection facilities, transit ASes and
// anycast site placement.
//
// This substitutes for the real Internet the paper measures through. The
// model keeps exactly the structure the paper's analyses consume:
//
//  * Facilities — carrier hotels / IXP sites. Root operators deploy instances
//    at facilities; several operators choosing the same well-connected
//    facility is what produces the server co-location of RQ1 (§5). A
//    facility's router is the shared second-to-last traceroute hop.
//  * Anycast sites — (root, facility, type) with global sites announced to
//    everyone and local sites announced NO_EXPORT (visible only to VPs whose
//    connectivity includes that facility, §2).
//  * Detour ASes — address-family-specific transit providers (the paper's
//    AS6939/AS12956 observations, §6) that attract routes for some
//    (root, region, family) combinations and move traffic to distant
//    replicas or onto faster paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/geo.h"
#include "util/ip.h"
#include "util/rng.h"

namespace rootsim::netsim {

using FacilityId = uint32_t;
using AsId = uint32_t;

/// An interconnection facility (data centre / IXP location).
struct Facility {
  FacilityId id = 0;
  std::string name;  // e.g. "EU-FRA-03"
  util::Region region = util::Region::Europe;
  util::GeoPoint location;
  /// Deployment attractiveness weight (Zipf-ish): big IXP facilities attract
  /// many root operators — the mechanism behind co-location.
  double attractiveness = 1.0;
  bool is_ixp = false;
};

enum class SiteType : uint8_t { Global, Local };

/// A local site is local either to a metro/IXP (reachable by any VP peering
/// at the facility) or to a single AS (paper §2) — the latter is effectively
/// invisible to RING-style VPs, which is why the paper's local-site coverage
/// is much lower than its global coverage.
enum class LocalScope : uint8_t { IxpLocal, AsLocal };

/// One anycast instance of one root deployment.
struct AnycastSite {
  uint32_t id = 0;
  uint32_t root_index = 0;  // 0 = a.root .. 12 = m.root
  FacilityId facility = 0;
  SiteType type = SiteType::Global;
  LocalScope local_scope = LocalScope::IxpLocal;
  util::Region region = util::Region::Europe;
  util::GeoPoint location;
  std::string identity;  // hostname.bind-style instance identifier
};

/// Per-root, per-region site counts (the paper's Table 4 ground truth).
struct DeploymentSpec {
  char letter = 'a';
  // Indexed by util::Region (6 entries each).
  std::array<int, util::kRegionCount> global_sites{};
  std::array<int, util::kRegionCount> local_sites{};
  /// Fraction of this operator's local sites that are AS-local (inside ISP
  /// networks) rather than IXP-local. Drives the per-root local coverage
  /// differences of Table 4 (j.root locals are mostly at IXPs and well
  /// covered; f.root locals are mostly in ISPs and poorly covered).
  double as_local_fraction = 0.5;

  int total_global() const;
  int total_local() const;
};

/// An address-family-specific routing quirk for (root, region, family):
/// a fraction of VPs' routes are carried by a specific transit AS, changing
/// both the selected replica and the experienced RTT (paper §6).
struct DetourRule {
  uint32_t root_index = 0;
  util::Region region = util::Region::Europe;
  util::IpFamily family = util::IpFamily::V4;
  AsId via_as = 0;            // e.g. 6939 or 12956
  double vp_fraction = 0.0;   // share of VPs whose routes use the detour
  double mean_rtt_ms = 100.0; // average RTT experienced on the detour
  double rtt_sigma = 0.5;     // lognormal shape around the mean
  /// If true the detour leads out of the region to a remote replica (adds
  /// geographic distance in Fig. 5 terms).
  bool out_of_region = false;
};

/// The assembled topology.
struct Topology {
  std::vector<Facility> facilities;
  std::vector<AnycastSite> sites;          // all roots' sites
  std::vector<DetourRule> detours;
  // Site ids grouped per root for quick catchment scans.
  std::array<std::vector<uint32_t>, 13> sites_by_root{};

  const Facility& facility_of(const AnycastSite& site) const {
    return facilities[site.facility];
  }
};

struct TopologyConfig {
  uint64_t seed = 42;
};

/// Builds facilities and places every deployment's sites. Deterministic in
/// config.seed.
Topology build_topology(const TopologyConfig& config,
                        const std::vector<DeploymentSpec>& deployments,
                        const std::vector<DetourRule>& detours);

}  // namespace rootsim::netsim
