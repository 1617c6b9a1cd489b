#include "measure/vantage.h"

#include <algorithm>

#include "util/strings.h"

namespace rootsim::measure {

const std::vector<RegionQuota>& table3_quotas() {
  static const std::vector<RegionQuota> quotas = {
      {util::Region::Africa, 10, 4, 9},
      {util::Region::Asia, 52, 19, 31},
      {util::Region::Europe, 435, 29, 386},
      {util::Region::NorthAmerica, 133, 3, 94},
      {util::Region::SouthAmerica, 13, 3, 12},
      {util::Region::Oceania, 32, 4, 22},
  };
  return quotas;
}

namespace {

// Facilities of one region, nearest-first to a point.
std::vector<netsim::FacilityId> nearby_facilities(const netsim::Topology& topology,
                                                  util::Region region,
                                                  const util::GeoPoint& at) {
  std::vector<std::pair<double, netsim::FacilityId>> scored;
  for (const auto& facility : topology.facilities) {
    if (facility.region != region) continue;
    scored.emplace_back(util::haversine_km(at, facility.location), facility.id);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<netsim::FacilityId> ids;
  ids.reserve(scored.size());
  for (const auto& [distance, id] : scored) ids.push_back(id);
  return ids;
}

}  // namespace

std::vector<VantagePoint> generate_vantage_points(const netsim::Topology& topology,
                                                  const VantageSetConfig& config) {
  // Connectivity breadth: how many nearby facilities a VP's AS peers at.
  constexpr int kMinFacilities = 1;
  constexpr int kMaxFacilities = 3;
  // Log-sigma of per-VP churn multipliers (Fig. 3's heavy tail).
  constexpr double kChurnSigma = 1.2;
  util::Rng rng(config.seed);
  util::Rng placement = rng.fork("vp/placement");
  util::Rng network_rng = rng.fork("vp/networks");
  util::Rng churn_rng = rng.fork("vp/churn");

  std::vector<VantagePoint> vps;
  uint32_t next_id = 0;
  uint32_t next_asn = 20000;  // synthetic AS number space
  uint32_t next_country = 1;

  for (const RegionQuota& quota : table3_quotas()) {
    const util::RegionBox& box = util::region_box(quota.region);
    // Pre-allocate the region's country and network pools so unique counts
    // match Table 3: the first `unique` VPs mint a new value, later ones
    // reuse uniformly.
    std::vector<uint32_t> countries, networks;
    for (int i = 0; i < quota.unique_countries; ++i)
      countries.push_back(next_country++);
    for (int i = 0; i < quota.unique_networks; ++i) networks.push_back(next_asn++);

    // NLNOG RING nodes overwhelmingly sit in data centres, so VP locations
    // cluster around facilities (weighted by facility attractiveness) with a
    // minority scattered across the region.
    std::vector<double> facility_weights;
    std::vector<const netsim::Facility*> region_facilities;
    for (const auto& facility : topology.facilities) {
      if (facility.region != quota.region) continue;
      region_facilities.push_back(&facility);
      facility_weights.push_back(facility.attractiveness);
    }
    for (int i = 0; i < quota.vantage_points; ++i) {
      VantagePoint vp;
      vp.view.vp_id = next_id++;
      vp.view.region = quota.region;
      if (!region_facilities.empty() && placement.chance(0.8)) {
        const netsim::Facility* home =
            region_facilities[placement.weighted_index(facility_weights)];
        vp.view.location = {home->location.lat_deg + placement.normal(0, 0.8),
                            home->location.lon_deg + placement.normal(0, 0.8)};
      } else {
        vp.view.location = {placement.uniform_real(box.lat_min, box.lat_max),
                            placement.uniform_real(box.lon_min, box.lon_max)};
      }
      // First pass through the pools guarantees every country/network is
      // used at least once; afterwards assignment is uniform.
      vp.country_code = i < quota.unique_countries
                            ? countries[static_cast<size_t>(i)]
                            : countries[network_rng.uniform(countries.size())];
      vp.view.asn = i < quota.unique_networks
                        ? networks[static_cast<size_t>(i)]
                        : networks[network_rng.uniform(networks.size())];
      // Connectivity: the nearest 1..3 facilities of the region.
      auto nearest = nearby_facilities(topology, quota.region, vp.view.location);
      int breadth = static_cast<int>(
          kMinFacilities + network_rng.uniform(static_cast<uint64_t>(
                               kMaxFacilities - kMinFacilities + 1)));
      for (int k = 0; k < breadth && k < static_cast<int>(nearest.size()); ++k)
        vp.view.connectivity.push_back(nearest[static_cast<size_t>(k)]);
      vp.view.churn_multiplier = churn_rng.lognormal(0.0, kChurnSigma);
      vp.node_name = util::format(
          "%s%03u.ring.nlnog.net",
          util::to_lower(std::string(util::region_short_name(quota.region))).c_str(),
          vp.view.vp_id);
      vps.push_back(std::move(vp));
    }
  }
  return vps;
}

std::array<RegionSummary, util::kRegionCount> summarize_regions(
    const std::vector<VantagePoint>& vps) {
  std::array<RegionSummary, util::kRegionCount> out{};
  std::array<std::vector<uint32_t>, util::kRegionCount> countries, networks;
  for (const auto& vp : vps) {
    size_t r = static_cast<size_t>(vp.view.region);
    ++out[r].vantage_points;
    countries[r].push_back(vp.country_code);
    networks[r].push_back(vp.view.asn);
  }
  for (size_t r = 0; r < util::kRegionCount; ++r) {
    auto count_unique = [](std::vector<uint32_t>& v) {
      std::sort(v.begin(), v.end());
      return static_cast<int>(std::unique(v.begin(), v.end()) - v.begin());
    };
    out[r].unique_countries = count_unique(countries[r]);
    out[r].unique_networks = count_unique(networks[r]);
  }
  return out;
}

}  // namespace rootsim::measure
