// Anycast route selection, RTT model, route churn and traceroute synthesis.
//
// For every (vantage point, root, family) the router picks a catchment site:
//   1. candidate set = all global sites + local sites whose facility is in
//      the VP's connectivity set (NO_EXPORT semantics, §2);
//   2. candidates are ranked by a BGP-proxy cost (geographic distance with a
//      per-VP/per-candidate policy perturbation — BGP does not pick the
//      geographically closest site, which is exactly the route inflation the
//      paper measures in Fig. 5);
//   3. detour rules (address-family-specific transit, §6) may override the
//      selection for a fraction of VPs, changing RTT and the last-hop AS;
//   4. a calibrated churn process flips the selection between the top
//      candidates over time, producing the site-change counts of Fig. 3.
//
// RTTs come from fiber distance (~10ms per 1,000 km, §6) plus access/jitter
// terms, or from the detour rule's calibrated distribution.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netsim/topology.h"
#include "obs/obs.h"
#include "util/geo.h"
#include "util/ip.h"
#include "util/rng.h"

namespace rootsim::netsim {

/// A client endpoint as the routing layer sees it.
struct VantageView {
  uint32_t vp_id = 0;
  util::Region region = util::Region::Europe;
  util::GeoPoint location;
  AsId asn = 0;
  /// Facilities this VP's AS is present at (grants visibility of local sites).
  std::vector<FacilityId> connectivity;
  /// Per-VP churn multiplier (lognormal, median 1) — the long tail of Fig. 3.
  double churn_multiplier = 1.0;
};

/// Identity of a last-hop router, as traceroute would fingerprint it. Equal
/// ids across two roots' traceroutes mean shared last-hop infrastructure.
using RouterId = uint64_t;

struct RouteResult {
  uint32_t site_id = 0;
  double rtt_ms = 0;
  bool via_detour = false;
  AsId detour_as = 0;
  /// Second-to-last traceroute hop; 0 when the hop did not answer (analysis
  /// must then treat it as unique — the paper's lower-bound rule, §5).
  RouterId second_to_last_hop = 0;
  /// Full synthesized hop list (first = VP gateway, last = the site itself).
  std::vector<RouterId> hops;
};

/// Per-root, per-family churn calibration: expected number of site changes a
/// median VP records over the whole campaign (paper §4.2: b.root 8/8,
/// g.root 36 on IPv4 / 64 on IPv6, ...).
struct ChurnSpec {
  double median_changes_v4 = 8;
  double median_changes_v6 = 8;
  bool operator==(const ChurnSpec&) const = default;
};

/// Probability that traceroute misses the second-to-last hop.
inline constexpr double kHopLossProbability = 0.05;

struct RouterConfig {
  uint64_t seed = 42;
  /// Total measurement rounds in the campaign (sets per-round flip rates).
  uint64_t campaign_rounds = 10272;
  /// Per-root churn calibration, indexed 0..12.
  std::array<ChurnSpec, 13> churn{};
};

class AnycastRouter {
 public:
  /// `obs` (optional) records route selections, site flips and per-round
  /// churn events; the default null sink adds one dead branch per call.
  AnycastRouter(const Topology& topology, RouterConfig config,
                obs::Obs obs = {});

  /// Steady-state selection (no churn): the site this VP's routes settle on.
  RouteResult route(const VantageView& vp, uint32_t root_index,
                    util::IpFamily family) const;

  /// Selection at a specific measurement round; flips between the top
  /// candidates per the churn process. round in [0, campaign_rounds).
  /// Equivalent to pick(prepare_selection(...), family, round) plus the
  /// traceroute hops.
  RouteResult route_at(const VantageView& vp, uint32_t root_index,
                       util::IpFamily family, uint64_t round) const;

  /// One VP's catchment for one (root, family): the two candidates the
  /// churn process flips between, with their RTTs and any detour override,
  /// plus the churn parameters. It depends only on (VP, root, family) and
  /// the static topology, never on the round, so loops that route the same
  /// VP many times prepare it once and pick per round: the stability
  /// analysis makes ~180M such lookups, the SLO timeline one per probe.
  /// Absent a detour, primary and secondary are the two cheapest sites of
  /// the VP's ranking of the root's sites: entries 0 and 1 of
  /// announced_routes.
  struct Selection {
    uint32_t primary_site = 0;
    uint32_t secondary_site = 0;  // flip target (== primary if one candidate)
    double primary_rtt_ms = 0;
    double secondary_rtt_ms = 0;
    bool via_detour = false;
    AsId detour_as = 0;
    double flip_probability = 0;
    uint64_t flip_stream = 0;  // hash stream key for per-round decisions
  };
  /// Ranks the root's sites for `family` alone, keeping the top 2; a
  /// matching detour rule then decides first, as a hijack of the VP's
  /// routes, and otherwise the top 2 are the candidates. Stops the process
  /// if the VP reaches no site of the root.
  Selection prepare_selection(const VantageView& vp, uint32_t root_index,
                              util::IpFamily family) const;
  /// A site the VP's routes reach and its BGP-proxy path cost for one
  /// family: geographic distance with a per-(VP, site, family) policy
  /// perturbation, halved for a visible local site.
  struct RankedSite {
    uint32_t site_id = 0;
    double cost = 0;
    double distance_km = 0;
  };
  /// prepare_selection for both families, selections[0] for v4 and [1] for
  /// v6, from one ranking pass over the root's sites, which computes each
  /// reachable site's distance once. The pass leaves each family's k
  /// cheapest sites in top[0] and top[1] (k = each span's size, at least
  /// 2): the first k site ids announced_routes lists, in order. Detour
  /// rules override the selection only, never `top`: the VP's BGP table
  /// still carries those routes. Returns how many sites each span received,
  /// min(k, the sites the VP reaches).
  size_t prepare_selections(const VantageView& vp, uint32_t root_index,
                            std::span<Selection, 2> selections,
                            std::array<std::span<RankedSite>, 2> top) const;
  /// The route at `round` from a selection prepared for `family`: the churn
  /// draw picks the site and its RTT, and the selection, flip and churn
  /// counters advance exactly as route_at's do. No traceroute hops are
  /// synthesized (second_to_last_hop = 0, hops empty). O(1).
  RouteResult pick(const Selection& selection, util::IpFamily family,
                   uint64_t round) const;
  /// The site pick() chooses at `round`, without touching the counters. O(1).
  static uint32_t site_at_round(const Selection& selection, uint64_t round);

  /// Geographically closest *global* site of a root to this VP (the Fig. 5
  /// reference point). Stops the process if the root has no global site.
  const AnycastSite& closest_global_site(const VantageView& vp,
                                         uint32_t root_index) const;

  /// Control-plane view (the data the paper's Appendix E wishes it had
  /// collected): the routes for this root's prefix as visible in the VP's
  /// BGP table — every reachable site with its path cost and a synthetic
  /// AS path, fully sorted, then cut to `max_routes`. Entry 0 is the best
  /// path (= what route() selects, absent a detour override). For the long
  /// tables (the control-plane bench, the failover impact); the selections
  /// and the SLO monitor's route fallback read the same ranking cut to its
  /// top k, without the full sort.
  struct AnnouncedRoute {
    uint32_t site_id = 0;
    double path_cost = 0;
    std::vector<AsId> as_path;  // VP's AS first, origin last
  };
  std::vector<AnnouncedRoute> announced_routes(const VantageView& vp,
                                               uint32_t root_index,
                                               util::IpFamily family,
                                               size_t max_routes = 8) const;

  /// Distance in km from VP to a site.
  double distance_km(const VantageView& vp, uint32_t site_id) const;

  const Topology& topology() const { return *topology_; }
  const RouterConfig& config() const { return config_; }

 private:
  /// The ranking every selection reads: of the root's sites the VP reaches
  /// (every global site, the local sites visible to it), the k cheapest
  /// for v4 into top[0] and for v6 into top[1], in (cost, site id) order.
  /// k is each span's size; an empty span skips its family. Each site's
  /// visibility and distance are computed once, its cost once per family,
  /// and the k cheapest are kept by insertion, not by a sort. Returns
  /// min(k, the sites the VP reaches).
  size_t rank_sites(const VantageView& vp, uint32_t root_index,
                    std::array<std::span<RankedSite>, 2> top) const;
  /// The cost model, used by rank_sites and announced_routes alike: whether
  /// the VP's routes reach a site, and a reachable site's path cost.
  bool reaches(const VantageView& vp, uint32_t site_id) const;
  double path_cost(const VantageView& vp, uint32_t site_id,
                   double distance_km, util::IpFamily family) const;
  /// The selection for `family` given the cheapest sites of its ranking,
  /// `ranked`: a detour rule that hijacks this (VP, root, family) decides
  /// first, and otherwise the top 2 of `ranked` do. Stops the process if
  /// no rule does and `ranked` is empty.
  Selection select(const VantageView& vp, uint32_t root_index,
                   util::IpFamily family,
                   std::span<const RankedSite> ranked) const;
  /// Synthesizes the traceroute hops of a picked route.
  void finish(const VantageView& vp, uint32_t root_index,
              util::IpFamily family, RouteResult& route) const;
  double flip_probability(const VantageView& vp, uint32_t root_index,
                          util::IpFamily family) const;

  const Topology* topology_;
  RouterConfig config_;
  uint64_t seed_mix_;
  // Pre-resolved metric handles, indexed by family (0 = v4, 1 = v6); null
  // when no sink is attached.
  std::array<obs::Counter*, 2> selections_{};
  std::array<obs::Counter*, 2> site_flips_{};
  std::array<obs::Counter*, 2> churn_events_{};
};

/// Default churn calibration reproducing the paper's §4.2 observations.
std::array<ChurnSpec, 13> default_churn_specs();

}  // namespace rootsim::netsim
