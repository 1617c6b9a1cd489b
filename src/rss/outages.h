// Per-site outage model.
//
// The paper's intro frames the RSS through RSSAC037's stability/reliability
// goals; RSSAC047 operationalizes them as measurable service metrics
// (availability, response latency, publication latency). Real instances do
// go dark occasionally — maintenance, upstream failures — and §5 discusses
// what a clustered-site failure would do. This model gives every site a
// deterministic schedule of rare outage windows so those metrics (and the
// §5 what-if) can be computed rather than asserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timeutil.h"

namespace rootsim::rss {

struct OutageWindow {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
};

/// A known, labelled outage window scripted onto one letter's deployment —
/// the vehicle for injecting paper-timeline events (and scenario-engine
/// events later) so the SLO monitor has something real to detect and the
/// label gives attribution something true to say. During [start, end) a
/// deterministic `site_fraction` of the letter's sites go dark.
struct ScriptedOutage {
  int root_index = -1;  ///< letter index 0..12, -1 = every letter
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  /// Fraction of sites dark during the window. Which sites is a pure hash
  /// of (site_id, label) so the set is stable across runs, disjoint events
  /// pick independent subsets, and the same label with a declining fraction
  /// darkens nested subsets (how scenario site-growth stages activate).
  double site_fraction = 1.0;
  /// Restrict the event to one util::Region (-1 = everywhere) — a regional
  /// buildout or a regionally clustered failure.
  int region = -1;
  /// Restrict the event to one netsim::SiteType (-1 = any): the §5 what-if
  /// of a DDoS that takes down a letter's *global* sites is site_type =
  /// Global, leaving locals answering their catchments.
  int site_type = -1;
  std::string label;
};

/// True if some scripted outage keeps `site_id` (serving letter
/// `root_index`) dark at time `t`. `site_region` / `site_type` are the
/// site's util::Region and netsim::SiteType as ints when the caller knows
/// them; -1 makes region/type-scoped outages skip the site (scoped events
/// need the topology to say what they hit).
bool scripted_site_dark(uint32_t site_id, int root_index, util::UnixTime t,
                        const std::vector<ScriptedOutage>& outages,
                        int site_region = -1, int site_type = -1);

struct OutageModelConfig {
  uint64_t seed = 42;
  /// Expected outages per site over the campaign (rate of a Poisson count).
  double outages_per_site = 1.5;
};

/// Deterministic outage schedule for one site over [start, end).
std::vector<OutageWindow> site_outages(uint32_t site_id, util::UnixTime start,
                                       util::UnixTime end,
                                       const OutageModelConfig& config = {});

/// True if the site is serving at `t`.
bool site_available(uint32_t site_id, util::UnixTime t, util::UnixTime start,
                    util::UnixTime end, const OutageModelConfig& config = {});

/// site_available() with scripted outages layered on top: the site serves at
/// `t` only if neither the Poisson model nor any scripted window darkens it.
bool site_available_at(uint32_t site_id, int root_index, util::UnixTime t,
                       util::UnixTime start, util::UnixTime end,
                       const OutageModelConfig& config,
                       const std::vector<ScriptedOutage>& scripted,
                       int site_region = -1, int site_type = -1);

/// site_outages() of sites [0, sites) over one [start, end), drawn once, so
/// a caller asking about the same sites many times does not re-draw and
/// re-sort their windows on every question.
class OutageTable {
 public:
  OutageTable(size_t sites, util::UnixTime start, util::UnixTime end,
              const OutageModelConfig& config);

  /// Same answer as site_available_at(site_id, root_index, t, start, end,
  /// config, scripted, site_region, site_type) over the table's horizon.
  /// `site_id` must be below the table's `sites`.
  bool available_at(uint32_t site_id, int root_index, util::UnixTime t,
                    const std::vector<ScriptedOutage>& scripted,
                    int site_region = -1, int site_type = -1) const;

 private:
  /// Site s's windows are windows_[first_[s], first_[s + 1]).
  std::vector<OutageWindow> windows_;
  std::vector<size_t> first_;
};

}  // namespace rootsim::rss
