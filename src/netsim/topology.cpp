#include "netsim/topology.h"

#include <algorithm>
#include <numeric>

#include "util/strings.h"

namespace rootsim::netsim {

int DeploymentSpec::total_global() const {
  return std::accumulate(global_sites.begin(), global_sites.end(), 0);
}

int DeploymentSpec::total_local() const {
  return std::accumulate(local_sites.begin(), local_sites.end(), 0);
}

namespace {

std::vector<Facility> build_facilities(util::Rng& rng) {
  // Facilities per region, sized so that big regions have enough distinct
  // locations while popular facilities still get heavily reused.
  constexpr std::array<int, util::kRegionCount> kFacilitiesPerRegion = {
      8, 28, 60, 42, 10, 8};
  // Zipf skew for facility attractiveness (higher = more co-location).
  constexpr double kAttractivenessSkew = 1.0;
  std::vector<Facility> facilities;
  FacilityId next_id = 0;
  for (util::Region region : util::all_regions()) {
    int count = kFacilitiesPerRegion[static_cast<size_t>(region)];
    const util::RegionBox& box = util::region_box(region);
    for (int i = 0; i < count; ++i) {
      Facility f;
      f.id = next_id++;
      f.name = util::format("%s-%02d", std::string(util::region_short_name(region)).c_str(), i);
      f.region = region;
      f.location = {rng.uniform_real(box.lat_min, box.lat_max),
                    rng.uniform_real(box.lon_min, box.lon_max)};
      // Zipf-like attractiveness: rank 1 facility in a region is the big IXP.
      f.attractiveness =
          1.0 / std::pow(static_cast<double>(i + 1), kAttractivenessSkew);
      f.is_ixp = i < std::max(1, count / 6);
      facilities.push_back(std::move(f));
    }
  }
  return facilities;
}

// Picks a facility in `region` weighted by attractiveness.
FacilityId pick_facility(const std::vector<Facility>& facilities,
                         util::Region region, util::Rng& rng) {
  std::vector<double> weights;
  std::vector<FacilityId> ids;
  for (const auto& f : facilities) {
    if (f.region != region) continue;
    weights.push_back(f.attractiveness);
    ids.push_back(f.id);
  }
  if (ids.empty()) return 0;
  return ids[rng.weighted_index(weights)];
}

}  // namespace

Topology build_topology(const TopologyConfig& config,
                        const std::vector<DeploymentSpec>& deployments,
                        const std::vector<DetourRule>& detours) {
  util::Rng rng(config.seed);
  Topology topo;
  topo.facilities = build_facilities(rng);
  topo.detours = detours;

  uint32_t next_site_id = 0;
  for (size_t root = 0; root < deployments.size() && root < 13; ++root) {
    const DeploymentSpec& spec = deployments[root];
    util::Rng placement = rng.fork(util::format("placement/%c", spec.letter));
    std::array<int, util::kRegionCount> instance_counter{};
    auto place = [&](util::Region region, SiteType type, int count) {
      for (int i = 0; i < count; ++i) {
        AnycastSite site;
        site.id = next_site_id++;
        site.root_index = static_cast<uint32_t>(root);
        site.type = type;
        if (type == SiteType::Local)
          site.local_scope = placement.chance(spec.as_local_fraction)
                                 ? LocalScope::AsLocal
                                 : LocalScope::IxpLocal;
        site.region = region;
        site.facility = pick_facility(topo.facilities, region, placement);
        const Facility& facility = topo.facilities[site.facility];
        // Instances sit at their facility with small metro-scale scatter.
        site.location = {facility.location.lat_deg + placement.normal(0, 0.15),
                         facility.location.lon_deg + placement.normal(0, 0.15)};
        int seq = instance_counter[static_cast<size_t>(region)]++;
        site.identity = util::format(
            "%s%02d.%c.root-servers.org",
            util::to_lower(std::string(util::region_short_name(region))).c_str(),
            seq, spec.letter);
        topo.sites_by_root[root].push_back(site.id);
        topo.sites.push_back(std::move(site));
      }
    };
    for (util::Region region : util::all_regions()) {
      place(region, SiteType::Global, spec.global_sites[static_cast<size_t>(region)]);
      place(region, SiteType::Local, spec.local_sites[static_cast<size_t>(region)]);
    }
  }
  return topo;
}

}  // namespace rootsim::netsim
