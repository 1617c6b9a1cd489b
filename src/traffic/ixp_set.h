// The IXP-DNS-1 vantage set: 14 IXPs in Europe and North America (paper
// §4.1). Each IXP gets its own client population (per-IXP eagerness jitter
// around the regional mean) and collector, so analyses can report both the
// per-IXP spread and the regional aggregates of Figs. 9/13.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "traffic/collectors.h"

namespace rootsim::traffic {

struct IxpSite {
  std::string name;           // "EU-IXP-01" style (real names are proprietary)
  util::Region region = util::Region::Europe;
  size_t peer_count = 100;    // relative size (affects client count)
  std::unique_ptr<PassiveCollector> collector;
};

struct IxpSetConfig {
  uint64_t seed = 42;
  size_t clients_per_peer = 40;
};

/// Builds the 14-IXP vantage set with per-IXP populations.
std::vector<IxpSite> build_ixp_set(util::UnixTime broot_change,
                                   const IxpSetConfig& config = {});

/// Aggregates daily traffic across a subset of IXPs (one region or all).
std::vector<DailyTraffic> aggregate_ixps(const std::vector<IxpSite>& ixps,
                                         util::Region region,
                                         util::UnixTime start,
                                         util::UnixTime end);

}  // namespace rootsim::traffic
