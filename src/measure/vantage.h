// Vantage points: the NLNOG-RING-like measurement endpoints.
//
// The set is generated to match the paper's Table 3 exactly: 675 VPs across
// 6 regions (Africa 10, Asia 52, Europe 435, North America 133, South
// America 13, Oceania 32) with the published per-region unique-country and
// unique-network counts. Two VPs carry skewed clocks and three have faulty
// RAM — the hardware reality behind Table 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/routing.h"
#include "util/geo.h"
#include "util/rng.h"
#include "util/timeutil.h"

namespace rootsim::measure {

struct VantagePoint {
  netsim::VantageView view;   // id, region, location, ASN, connectivity
  std::string node_name;      // "vp042.ring.nlnog.net"-style
  uint32_t country_code = 0;  // synthetic country id, unique per region
  /// Clock offset in seconds (nonzero for the two bad-clock VPs).
  int64_t clock_offset_s = 0;
  /// Probability that a zone transfer through this VP suffers a bitflip
  /// (nonzero only for the faulty-RAM VPs).
  double bitflip_probability = 0;

  util::UnixTime local_clock(util::UnixTime true_time) const {
    return true_time + clock_offset_s;
  }
};

/// Region statistics as published in Table 3.
struct RegionQuota {
  util::Region region;
  int vantage_points;
  int unique_countries;
  int unique_networks;
};

/// The paper's Table 3 values.
const std::vector<RegionQuota>& table3_quotas();

struct VantageSetConfig {
  uint64_t seed = 42;
};

/// Generates the full VP set against a topology (for facility connectivity).
std::vector<VantagePoint> generate_vantage_points(
    const netsim::Topology& topology, const VantageSetConfig& config = {});

/// Summary counts per region (to verify against Table 3).
struct RegionSummary {
  int vantage_points = 0;
  int unique_countries = 0;
  int unique_networks = 0;
};
std::array<RegionSummary, util::kRegionCount> summarize_regions(
    const std::vector<VantagePoint>& vps);

}  // namespace rootsim::measure
