#include "netsim/routing.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace rootsim::netsim {

namespace {

// Stable per-tuple hash for deterministic "random" decisions without storing
// per-tuple state.
uint64_t mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d = 0) {
  uint64_t state = a * 0x9e3779b97f4a7c15ULL ^ b * 0xbf58476d1ce4e5b9ULL ^
                   c * 0x94d049bb133111ebULL ^ d * 0x2545f4914f6cdd1dULL;
  return util::splitmix64(state);
}

double unit_from_hash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

uint64_t family_tag(util::IpFamily family) {
  return family == util::IpFamily::V4 ? 4 : 6;
}

/// The family of rank_sites' top[f].
constexpr std::array<util::IpFamily, 2> kFamilies = {util::IpFamily::V4,
                                                     util::IpFamily::V6};

/// The ranking's order: cheaper path first, then the lower site id, so
/// that the full sort and the partial selection agree even on a tie.
bool cheaper(const AnycastRouter::RankedSite& a,
             const AnycastRouter::RankedSite& b) {
  return a.cost < b.cost || (a.cost == b.cost && a.site_id < b.site_id);
}

/// Adds `site` to best[0, size), the cheapest sites so far in ranking
/// order, keeping at most best.size() (> 0) of them.
void keep_cheapest(std::span<AnycastRouter::RankedSite> best, size_t size,
                   const AnycastRouter::RankedSite& site) {
  if (size == best.size()) {
    if (!cheaper(site, best[size - 1])) return;
    --size;  // the dearest kept site makes room
  }
  size_t at = size;
  for (; at > 0 && cheaper(site, best[at - 1]); --at) best[at] = best[at - 1];
  best[at] = site;
}

// The churn draw: at `round` the selection sits on its secondary candidate.
bool churned(const AnycastRouter::Selection& selection, uint64_t round) {
  return unit_from_hash(mix(selection.flip_stream, round, 1, 2)) <
         selection.flip_probability;
}

RouteResult chosen_route(const AnycastRouter::Selection& selection,
                         bool use_secondary) {
  RouteResult route;
  route.site_id =
      use_secondary ? selection.secondary_site : selection.primary_site;
  route.rtt_ms =
      use_secondary ? selection.secondary_rtt_ms : selection.primary_rtt_ms;
  route.via_detour = selection.via_detour;
  route.detour_as = selection.detour_as;
  return route;
}

}  // namespace

std::array<ChurnSpec, 13> default_churn_specs() {
  // Medians from the paper §4.2: b.root is remarkably stable (8 changes for
  // both families over the campaign) while g.root — with the *same* number of
  // sites — sees 36 (v4) and 64 (v6). c.root and h.root also show elevated
  // IPv6 churn. Values for the remaining roots interpolate with deployment
  // size (larger deployments churn somewhat more, per Koch et al.).
  std::array<ChurnSpec, 13> specs{};
  specs[0] = {12, 14};    // a
  specs[1] = {8, 8};      // b
  specs[2] = {14, 30};    // c (elevated v6)
  specs[3] = {16, 18};    // d
  specs[4] = {24, 26};    // e
  specs[5] = {28, 30};    // f
  specs[6] = {36, 64};    // g (the paper's surprise case)
  specs[7] = {14, 28};    // h (elevated v6)
  specs[8] = {20, 22};    // i
  specs[9] = {22, 24};    // j
  specs[10] = {24, 26};   // k
  specs[11] = {26, 28};   // l
  specs[12] = {12, 13};   // m
  return specs;
}

AnycastRouter::AnycastRouter(const Topology& topology, RouterConfig config,
                             obs::Obs obs)
    : topology_(&topology), config_(config), seed_mix_(config.seed * 0x9e3779b97f4a7c15ULL) {
  for (size_t f = 0; f < 2; ++f) {
    obs::LabelSet labels{{"family", f == 0 ? "v4" : "v6"}};
    selections_[f] = obs.counter_handle("netsim.route_selections", labels);
    site_flips_[f] = obs.counter_handle("netsim.site_flips", labels);
    churn_events_[f] = obs.counter_handle("netsim.churn_events", labels);
  }
}

double AnycastRouter::distance_km(const VantageView& vp, uint32_t site_id) const {
  return util::haversine_km(vp.location, topology_->sites[site_id].location);
}

const AnycastSite& AnycastRouter::closest_global_site(const VantageView& vp,
                                                      uint32_t root_index) const {
  const AnycastSite* best = nullptr;
  double best_distance = 0;
  for (uint32_t site_id : topology_->sites_by_root[root_index]) {
    const AnycastSite& site = topology_->sites[site_id];
    if (site.type != SiteType::Global) continue;
    double d = util::haversine_km(vp.location, site.location);
    if (!best || d < best_distance) {
      best = &site;
      best_distance = d;
    }
  }
  if (!best)
    util::fatal("AnycastRouter: root %u has no global site", root_index);
  return *best;
}

bool AnycastRouter::reaches(const VantageView& vp, uint32_t site_id) const {
  const AnycastSite& site = topology_->sites[site_id];
  if (site.type != SiteType::Local) return true;
  if (site.local_scope == LocalScope::AsLocal) {
    // Inside some ISP's network; a RING-style VP is almost never a customer
    // of exactly that ISP.
    return unit_from_hash(mix(seed_mix_, vp.asn, site_id, 0xA5)) < 0.01;
  }
  // NO_EXPORT at an IXP: visible only through the VP's own facilities.
  return std::find(vp.connectivity.begin(), vp.connectivity.end(),
                   site.facility) != vp.connectivity.end();
}

double AnycastRouter::path_cost(const VantageView& vp, uint32_t site_id,
                                double distance_km,
                                util::IpFamily family) const {
  // Per-(VP, site, family) policy perturbation: BGP path choice is not
  // geographic. Lognormal multiplier, median 1.
  // BGP-vs-geography noise: stddev of the multiplicative cost perturbation.
  constexpr double kPolicyNoiseSigma = 0.7;
  const uint64_t ftag = family_tag(family);
  double u1 = unit_from_hash(mix(seed_mix_, vp.vp_id, site_id, ftag));
  double u2 = unit_from_hash(mix(seed_mix_, vp.vp_id, site_id, ftag + 100));
  double z = std::sqrt(-2.0 * std::log(std::max(u1, 1e-12))) *
             std::cos(6.283185307179586 * u2);
  double cost = (distance_km + 200.0) * std::exp(kPolicyNoiseSigma * z);
  // Local sites are preferred when visible (shorter AS path).
  if (topology_->sites[site_id].type == SiteType::Local) cost *= 0.5;
  return cost;
}

size_t AnycastRouter::rank_sites(const VantageView& vp, uint32_t root_index,
                                 std::array<std::span<RankedSite>, 2> top) const {
  const size_t k = std::max(top[0].size(), top[1].size());
  size_t ranked = 0;
  for (uint32_t site_id : topology_->sites_by_root[root_index]) {
    if (!reaches(vp, site_id)) continue;
    const double distance = distance_km(vp, site_id);
    for (size_t f = 0; f < 2; ++f)
      if (!top[f].empty())
        keep_cheapest(top[f], ranked,
                      {site_id, path_cost(vp, site_id, distance, kFamilies[f]),
                       distance});
    ranked = std::min(ranked + 1, k);
  }
  return ranked;
}

std::vector<AnycastRouter::AnnouncedRoute> AnycastRouter::announced_routes(
    const VantageView& vp, uint32_t root_index, util::IpFamily family,
    size_t max_routes) const {
  // The selection's ranking, kept whole — the control-plane table a route
  // collector at the VP would export.
  std::vector<RankedSite> ranked;
  ranked.reserve(topology_->sites_by_root[root_index].size());
  for (uint32_t site_id : topology_->sites_by_root[root_index]) {
    if (!reaches(vp, site_id)) continue;
    const double distance = distance_km(vp, site_id);
    ranked.push_back({site_id, path_cost(vp, site_id, distance, family), distance});
  }
  std::sort(ranked.begin(), ranked.end(), cheaper);
  if (ranked.size() > max_routes) ranked.resize(max_routes);

  const uint64_t ftag = family_tag(family);
  std::vector<AnnouncedRoute> routes;
  routes.reserve(ranked.size());
  for (const RankedSite& s : ranked) {
    AnnouncedRoute route;
    route.site_id = s.site_id;
    route.path_cost = s.cost;
    // Synthetic AS path: VP's AS, 1-3 transit hops keyed by (vp, site), the
    // operator's origin AS (stable per root: 64496 + root).
    route.as_path.push_back(vp.asn);
    const AnycastSite& site = topology_->sites[s.site_id];
    size_t transit_hops = 1 + mix(seed_mix_, vp.vp_id, s.site_id, ftag + 3) % 3;
    for (size_t i = 0; i < transit_hops; ++i)
      route.as_path.push_back(static_cast<AsId>(
          3000 + mix(0xB0u + i, vp.vp_id ^ (site.facility << 8), i, ftag) % 5000));
    route.as_path.push_back(64496 + root_index);
    routes.push_back(std::move(route));
  }
  return routes;
}

double AnycastRouter::flip_probability(const VantageView& vp, uint32_t root_index,
                                       util::IpFamily family) const {
  const ChurnSpec& spec = config_.churn[root_index];
  double median_changes =
      family == util::IpFamily::V4 ? spec.median_changes_v4 : spec.median_changes_v6;
  // The selection at round r is `secondary` iff U(r) < p; transitions between
  // consecutive rounds then happen with probability 2p(1-p), so expected
  // changes = rounds * 2p(1-p). Solve for small p.
  double target_rate =
      median_changes / static_cast<double>(std::max<uint64_t>(config_.campaign_rounds, 1));
  double p = target_rate / 2.0;  // first-order inverse of 2p(1-p)
  return std::min(0.5, p * vp.churn_multiplier);
}

AnycastRouter::Selection AnycastRouter::select(
    const VantageView& vp, uint32_t root_index, util::IpFamily family,
    std::span<const RankedSite> ranked) const {
  Selection s;
  s.flip_probability = flip_probability(vp, root_index, family);
  s.flip_stream = mix(seed_mix_ ^ 0x5151515151515151ULL, vp.vp_id,
                      root_index * 131 + family_tag(family), 0xABCD);

  // Detour rules first: a matching rule hijacks this VP's routes for this
  // (root, family) with the configured probability (stable per VP).
  for (const DetourRule& rule : topology_->detours) {
    if (rule.root_index != root_index || rule.region != vp.region ||
        rule.family != family)
      continue;
    uint64_t h = mix(seed_mix_, vp.vp_id, root_index * 131 + family_tag(family),
                     rule.via_as);
    if (unit_from_hash(h) < rule.vp_fraction) {
      // Select the replica the detour delivers to: the best site as seen from
      // the transit AS (out-of-region rules pick a remote one).
      uint32_t chosen = 0;
      double best = 1e18;
      for (uint32_t site_id : topology_->sites_by_root[root_index]) {
        const AnycastSite& site = topology_->sites[site_id];
        if (site.type != SiteType::Global) continue;
        bool remote = site.region != vp.region;
        if (rule.out_of_region != remote) continue;
        double d = util::haversine_km(vp.location, site.location);
        // Deterministic tie-break noise per site.
        d *= 1.0 + 0.2 * unit_from_hash(mix(seed_mix_, site_id, rule.via_as, 7));
        if (d < best) {
          best = d;
          chosen = site_id;
        }
      }
      if (best < 1e18) {
        s.via_detour = true;
        s.detour_as = rule.via_as;
        s.primary_site = chosen;
        s.secondary_site = chosen;
        double u = unit_from_hash(mix(seed_mix_, vp.vp_id, chosen, 99));
        // Lognormal RTT around the rule's calibrated mean.
        double z = std::sqrt(-2.0 * std::log(std::max(u, 1e-12))) *
                   std::cos(6.283185307179586 *
                            unit_from_hash(mix(seed_mix_, vp.vp_id, chosen, 100)));
        double mu = std::log(rule.mean_rtt_ms) - rule.rtt_sigma * rule.rtt_sigma / 2;
        s.primary_rtt_ms = std::exp(mu + rule.rtt_sigma * z);
        s.secondary_rtt_ms = s.primary_rtt_ms;
        return s;
      }
    }
  }

  // Normal BGP-proxy selection: the two cheapest paths.
  if (ranked.empty())
    util::fatal("AnycastRouter: VP %u reaches no site of root %u", vp.vp_id,
                root_index);
  const RankedSite& primary = ranked[0];
  const RankedSite& secondary = ranked.size() > 1 ? ranked[1] : ranked[0];
  auto rtt_of = [&](const RankedSite& site) {
    // Fiber RTT + access network constant + per-path jitter.
    double base = util::fiber_rtt_ms(site.distance_km) + 2.0;
    double jitter =
        1.0 + 0.5 * unit_from_hash(mix(seed_mix_, vp.vp_id, site.site_id, 55));
    return base * jitter;
  };
  s.primary_site = primary.site_id;
  s.secondary_site = secondary.site_id;
  s.primary_rtt_ms = rtt_of(primary);
  s.secondary_rtt_ms = rtt_of(secondary);
  return s;
}

AnycastRouter::Selection AnycastRouter::prepare_selection(
    const VantageView& vp, uint32_t root_index, util::IpFamily family) const {
  std::array<RankedSite, 2> cheapest;
  std::array<std::span<RankedSite>, 2> top{};
  top[family == util::IpFamily::V4 ? 0 : 1] = cheapest;
  const size_t ranked = rank_sites(vp, root_index, top);
  return select(vp, root_index, family, std::span(cheapest).first(ranked));
}

size_t AnycastRouter::prepare_selections(
    const VantageView& vp, uint32_t root_index,
    std::span<Selection, 2> selections,
    std::array<std::span<RankedSite>, 2> top) const {
  const size_t ranked = rank_sites(vp, root_index, top);
  for (size_t f = 0; f < 2; ++f)
    selections[f] = select(vp, root_index, kFamilies[f], top[f].first(ranked));
  return ranked;
}

RouteResult AnycastRouter::pick(const Selection& selection,
                                util::IpFamily family, uint64_t round) const {
  const bool use_secondary = churned(selection, round);
  const size_t f = family == util::IpFamily::V4 ? 0 : 1;
  obs::inc(selections_[f]);
  if (selection.primary_site != selection.secondary_site) {
    if (use_secondary) obs::inc(site_flips_[f]);
    // A churn event is a round-over-round site change — the unit Fig. 3
    // counts. The previous round's pick replays the same hash stream, so
    // this costs one mix() and stays deterministic.
    if (round > 0 && churn_events_[f] &&
        churned(selection, round - 1) != use_secondary)
      obs::inc(churn_events_[f]);
  }
  return chosen_route(selection, use_secondary);
}

uint32_t AnycastRouter::site_at_round(const Selection& selection, uint64_t round) {
  return churned(selection, round) ? selection.secondary_site
                                   : selection.primary_site;
}

void AnycastRouter::finish(const VantageView& vp, uint32_t root_index,
                           util::IpFamily family, RouteResult& route) const {
  const AnycastSite& site = topology_->sites[route.site_id];
  uint64_t ftag = family_tag(family);

  // Second-to-last hop identity.
  RouterId hop;
  if (route.via_detour) {
    // The detour transit AS's edge router serves several roots' traffic from
    // this VP — shared infrastructure observed via a shared hop (paper §5's
    // AS6939/AS12956 note). Keyed by AS and family only: every root carried
    // by the AS from this region funnels through the same edge.
    hop = mix(0xD0u, route.detour_as, ftag, static_cast<uint64_t>(vp.region));
  } else {
    // Probability that a root instance at a facility has its own (unshared)
    // last-hop router, per family. Lower = more observed co-location.
    constexpr double kDedicatedRouterProbV4 = 0.62;
    constexpr double kDedicatedRouterProbV6 = 0.66;
    // Fraction of facilities whose peering fabric funnels every hosted root
    // through one router (the clustered mega-IXP case: VPs there can observe
    // up to 12 co-located roots).
    constexpr double kSharedFabricFraction = 0.12;
    double dedicated_prob = family == util::IpFamily::V4
                                ? kDedicatedRouterProbV4
                                : kDedicatedRouterProbV6;
    // Some facilities funnel all hosted roots through one shared fabric
    // router; VPs routed there observe very large co-location clusters.
    bool shared_fabric =
        unit_from_hash(mix(0xFAu, site.facility, 1, 2)) < kSharedFabricFraction;
    if (shared_fabric) dedicated_prob = 0.04;
    bool dedicated =
        unit_from_hash(mix(seed_mix_, site.facility, root_index, ftag)) <
        dedicated_prob;
    hop = dedicated ? mix(0xF1u, site.facility, root_index * 29 + 11, ftag)
                    : mix(0xF0u, site.facility, 0, ftag);
  }
  // Traceroute may miss the hop entirely; analysis then must treat it as
  // unique (0 is the "no answer" marker).
  bool lost = unit_from_hash(mix(seed_mix_, vp.vp_id, route.site_id,
                                 ftag + 777)) < kHopLossProbability;
  route.second_to_last_hop = lost ? 0 : hop;

  // Synthesized full path: VP gateway, VP AS core, 1-3 transit hops,
  // facility router (the second-to-last hop), then the instance.
  route.hops.push_back(mix(0xA0u, vp.vp_id, 0, ftag));
  route.hops.push_back(mix(0xA1u, vp.asn, 0, ftag));
  size_t transit_hops =
      1 + mix(seed_mix_, vp.vp_id, route.site_id, ftag + 3) % 3;
  for (size_t i = 0; i < transit_hops; ++i)
    route.hops.push_back(mix(0xB0u + i, vp.vp_id ^ (site.facility << 8), i, ftag));
  route.hops.push_back(route.second_to_last_hop);
  route.hops.push_back(mix(0xC0u, site.id, root_index, ftag));
}

RouteResult AnycastRouter::route(const VantageView& vp, uint32_t root_index,
                                 util::IpFamily family) const {
  RouteResult result = chosen_route(prepare_selection(vp, root_index, family),
                                    /*use_secondary=*/false);
  obs::inc(selections_[family == util::IpFamily::V4 ? 0 : 1]);
  finish(vp, root_index, family, result);
  return result;
}

RouteResult AnycastRouter::route_at(const VantageView& vp, uint32_t root_index,
                                    util::IpFamily family, uint64_t round) const {
  RouteResult result =
      pick(prepare_selection(vp, root_index, family), family, round);
  finish(vp, root_index, family, result);
  return result;
}

}  // namespace rootsim::netsim
