// Coverage analysis (paper §4.2, Tables 1 & 4, Figs. 1 & 11).
//
// Replays the campaign's instance-identification method: every hostname.bind
// / id.server answer observed from any VP in any round is matched against
// the ground-truth site list; a site is "covered" when at least one VP's
// catchment reaches it at some point of the campaign.
#pragma once

#include <array>
#include <set>
#include <vector>

#include "measure/campaign.h"

namespace rootsim::analysis {

struct CoverageCell {
  int sites = 0;
  int covered = 0;
  double percent() const {
    return sites > 0 ? 100.0 * covered / sites : 0.0;
  }
};

struct RootCoverage {
  char letter = 'a';
  CoverageCell global;
  CoverageCell local;
  CoverageCell total() const {
    return {global.sites + local.sites, global.covered + local.covered};
  }
};

struct CoverageReport {
  /// Worldwide per root (Table 1).
  std::array<RootCoverage, rss::kRootCount> worldwide{};
  /// Per region per root (Table 4).
  std::array<std::array<RootCoverage, rss::kRootCount>, util::kRegionCount>
      per_region{};
  /// Site ids observed at least once (for the Fig. 11 maps).
  std::set<uint32_t> observed_sites;
};

CoverageReport compute_coverage(const measure::Campaign& campaign);

/// §4.2's identifier-to-site matching step. Not every hostname.bind answer
/// maps to a published site: {a,c,e,j}.root report only IATA-style metro
/// codes (instances in the same metro become indistinguishable), and some
/// j.root identifiers map to nothing published at all — the paper matched
/// 1,469 of 1,604 observed identifiers, with 75 of the 135 failures from
/// j.root.
struct IdentityMappingReport {
  size_t observed_identifiers = 0;
  size_t mapped = 0;
  size_t unmapped = 0;
  /// Unmapped count per root (j dominates).
  std::array<size_t, rss::kRootCount> unmapped_per_root{};
  /// Identifiers that collapsed with another instance in the same metro
  /// (the {a,c,e,j} ambiguity).
  size_t metro_ambiguous = 0;
};

IdentityMappingReport compute_identity_mapping(const measure::Campaign& campaign,
                                               const CoverageReport& coverage);

/// Renders an ASCII world map of one root's sites (Fig. 11 style): 'G'/'L'
/// covered global/local, 'g'/'l' unobserved.
std::string render_coverage_map(const measure::Campaign& campaign,
                                const CoverageReport& report, int root_index,
                                int width = 72, int height = 20);

}  // namespace rootsim::analysis
