#include "analysis/coverage.h"

#include <algorithm>
#include <map>

namespace rootsim::analysis {

CoverageReport compute_coverage(const measure::Campaign& campaign) {
  // Rounds sampled when probing catchment churn for extra observed sites.
  constexpr size_t kChurnSampleRounds = 64;
  CoverageReport report;
  const netsim::Topology& topology = campaign.topology();
  const netsim::AnycastRouter& router = campaign.router();
  const auto& vps = campaign.vantage_points();
  size_t rounds = campaign.schedule().round_count();

  // Observed = union over VPs, families, and sampled rounds of the catchment.
  for (const auto& vp : vps) {
    for (uint32_t root = 0; root < rss::kRootCount; ++root) {
      for (util::IpFamily family : {util::IpFamily::V4, util::IpFamily::V6}) {
        auto selection = router.prepare_selection(vp.view, root, family);
        report.observed_sites.insert(selection.primary_site);
        // Churn exposes the secondary site if flips are likely enough over
        // the campaign; sample rounds rather than sweeping all of them.
        for (size_t s = 0; s < kChurnSampleRounds; ++s) {
          uint64_t round = rounds > 0 ? (s * 997) % rounds : 0;
          report.observed_sites.insert(
              netsim::AnycastRouter::site_at_round(selection, round));
        }
      }
    }
  }

  for (const netsim::AnycastSite& site : topology.sites) {
    bool covered = report.observed_sites.count(site.id) > 0;
    RootCoverage& world = report.worldwide[site.root_index];
    world.letter = static_cast<char>('a' + site.root_index);
    RootCoverage& regional =
        report.per_region[static_cast<size_t>(site.region)][site.root_index];
    regional.letter = world.letter;
    CoverageCell& world_cell =
        site.type == netsim::SiteType::Global ? world.global : world.local;
    CoverageCell& region_cell =
        site.type == netsim::SiteType::Global ? regional.global : regional.local;
    ++world_cell.sites;
    ++region_cell.sites;
    if (covered) {
      ++world_cell.covered;
      ++region_cell.covered;
    }
  }
  return report;
}

IdentityMappingReport compute_identity_mapping(const measure::Campaign& campaign,
                                               const CoverageReport& coverage) {
  IdentityMappingReport report;
  const netsim::Topology& topology = campaign.topology();
  // Which roots publish only metro-level identifiers ({a,c,e,j}, §4.2 fn 2).
  auto metro_only = [](uint32_t root) {
    return root == 0 || root == 2 || root == 4 || root == 9;
  };
  // Count instances per (root, facility) to detect metro collisions.
  std::map<std::pair<uint32_t, netsim::FacilityId>, int> per_metro;
  for (const auto& site : topology.sites)
    ++per_metro[{site.root_index, site.facility}];

  for (uint32_t site_id : coverage.observed_sites) {
    const netsim::AnycastSite& site = topology.sites[site_id];
    ++report.observed_identifiers;
    // j.root's local-site identifiers do not match anything published
    // online (the paper's 75 unmapped j identifiers).
    bool unmappable = site.root_index == 9 &&
                      site.type == netsim::SiteType::Local;
    if (unmappable) {
      ++report.unmapped;
      ++report.unmapped_per_root[site.root_index];
      continue;
    }
    ++report.mapped;
    if (metro_only(site.root_index) &&
        per_metro[{site.root_index, site.facility}] > 1)
      ++report.metro_ambiguous;
  }
  return report;
}

std::string render_coverage_map(const measure::Campaign& campaign,
                                const CoverageReport& report, int root_index,
                                int width, int height) {
  std::vector<std::string> grid(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), '.'));
  auto plot = [&](const util::GeoPoint& p, char c) {
    int x = static_cast<int>((p.lon_deg + 180.0) / 360.0 * (width - 1));
    int y = static_cast<int>((90.0 - p.lat_deg) / 180.0 * (height - 1));
    x = std::clamp(x, 0, width - 1);
    y = std::clamp(y, 0, height - 1);
    grid[static_cast<size_t>(y)][static_cast<size_t>(x)] = c;
  };
  for (const auto& site : campaign.topology().sites) {
    if (site.root_index != static_cast<uint32_t>(root_index)) continue;
    bool covered = report.observed_sites.count(site.id) > 0;
    char symbol = site.type == netsim::SiteType::Global ? (covered ? 'G' : 'g')
                                                        : (covered ? 'L' : 'l');
    plot(site.location, symbol);
  }
  std::string out;
  for (const auto& row : grid) {
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace rootsim::analysis
