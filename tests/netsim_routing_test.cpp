#include "netsim/routing.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "measure/campaign.h"
#include "obs/metrics.h"
#include "rss/catalog.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "util/stats.h"

namespace rootsim::netsim {
namespace {

struct Fixture {
  rss::RootCatalog catalog;
  Topology topology;
  RouterConfig config;
  std::unique_ptr<AnycastRouter> router;

  Fixture() {
    TopologyConfig topo_config;
    topology = build_topology(topo_config, catalog.all_deployment_specs(),
                              rss::paper_detour_rules());
    config.churn = default_churn_specs();
    config.campaign_rounds = 10000;
    router = std::make_unique<AnycastRouter>(topology, config);
  }

  VantageView vp_at(uint32_t id, util::Region region, double lat, double lon) {
    VantageView vp;
    vp.vp_id = id;
    vp.region = region;
    vp.location = {lat, lon};
    vp.asn = 64500 + id;
    vp.churn_multiplier = 1.0;
    return vp;
  }
};

TEST(Routing, RouteIsDeterministic) {
  Fixture f;
  VantageView vp = f.vp_at(1, util::Region::Europe, 50.1, 8.7);
  RouteResult a = f.router->route(vp, 0, util::IpFamily::V4);
  RouteResult b = f.router->route(vp, 0, util::IpFamily::V4);
  EXPECT_EQ(a.site_id, b.site_id);
  EXPECT_DOUBLE_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.second_to_last_hop, b.second_to_last_hop);
}

TEST(Routing, SelectedSiteBelongsToRequestedRoot) {
  Fixture f;
  VantageView vp = f.vp_at(2, util::Region::NorthAmerica, 40.7, -74.0);
  for (uint32_t root = 0; root < 13; ++root) {
    for (util::IpFamily family : {util::IpFamily::V4, util::IpFamily::V6}) {
      RouteResult route = f.router->route(vp, root, family);
      EXPECT_EQ(f.topology.sites[route.site_id].root_index, root);
      EXPECT_GT(route.rtt_ms, 0);
    }
  }
}

TEST(Routing, EuropeanVpPrefersNearbyReplicaForLargeDeployments) {
  // With 46 f.root global sites in Europe, a Frankfurt VP should reach one
  // within a few thousand km, never a 15,000 km one.
  Fixture f;
  VantageView vp = f.vp_at(3, util::Region::Europe, 50.1, 8.7);
  RouteResult route = f.router->route(vp, 5, util::IpFamily::V4);  // f.root
  double km = f.router->distance_km(vp, route.site_id);
  EXPECT_LT(km, 5000);
}

TEST(Routing, ClosestGlobalSiteIsGlobalAndClosest) {
  Fixture f;
  VantageView vp = f.vp_at(4, util::Region::Asia, 35.6, 139.7);
  for (uint32_t root = 0; root < 13; ++root) {
    const AnycastSite& closest = f.router->closest_global_site(vp, root);
    EXPECT_EQ(closest.type, SiteType::Global);
    double closest_km = util::haversine_km(vp.location, closest.location);
    for (uint32_t site_id : f.topology.sites_by_root[root]) {
      const AnycastSite& site = f.topology.sites[site_id];
      if (site.type != SiteType::Global) continue;
      EXPECT_LE(closest_km, util::haversine_km(vp.location, site.location) + 1e-6);
    }
  }
}

TEST(Routing, AsLocalSitesInvisibleToOutsiders) {
  // Route many VPs to f.root (70% AS-local locals): AS-local sites must
  // almost never be selected.
  Fixture f;
  int as_local_selections = 0, total = 0;
  for (uint32_t id = 0; id < 200; ++id) {
    VantageView vp = f.vp_at(1000 + id, util::Region::Europe,
                             45 + (id % 10), 5 + (id % 20));
    RouteResult route = f.router->route(vp, 5, util::IpFamily::V4);
    const AnycastSite& site = f.topology.sites[route.site_id];
    if (site.type == SiteType::Local && site.local_scope == LocalScope::AsLocal)
      ++as_local_selections;
    ++total;
  }
  EXPECT_LT(as_local_selections, total / 10);
}

TEST(Routing, ChurnProducesCalibratedMedianChanges) {
  // Count changes over the campaign for b.root (target median 8) and g.root
  // (targets 36 v4 / 64 v6) over a population of unit-multiplier VPs.
  Fixture f;
  auto median_changes = [&](uint32_t root, util::IpFamily family) {
    std::vector<double> counts;
    for (uint32_t id = 0; id < 60; ++id) {
      VantageView vp = f.vp_at(id, util::Region::Europe, 48 + id % 10, id % 20);
      auto selection = f.router->prepare_selection(vp, root, family);
      uint64_t changes = 0;
      uint32_t previous = AnycastRouter::site_at_round(selection, 0);
      for (uint64_t round = 1; round < f.config.campaign_rounds; ++round) {
        uint32_t current = AnycastRouter::site_at_round(selection, round);
        if (current != previous) ++changes;
        previous = current;
      }
      counts.push_back(static_cast<double>(changes));
    }
    return util::percentile(counts, 0.5);
  };
  double b_v4 = median_changes(1, util::IpFamily::V4);
  double g_v4 = median_changes(6, util::IpFamily::V4);
  double g_v6 = median_changes(6, util::IpFamily::V6);
  EXPECT_NEAR(b_v4, 8, 5);
  EXPECT_NEAR(g_v4, 36, 14);
  EXPECT_NEAR(g_v6, 64, 20);
  EXPECT_GT(g_v6, g_v4);  // the paper's headline ordering
  EXPECT_GT(g_v4, b_v4);
}

TEST(Routing, ChurnFlipsBetweenPreparedCandidates) {
  Fixture f;
  VantageView vp = f.vp_at(5, util::Region::Europe, 52.5, 13.4);
  vp.churn_multiplier = 50;  // heavy-churn VP
  auto selection = f.router->prepare_selection(vp, 6, util::IpFamily::V6);
  std::set<uint32_t> seen;
  for (uint64_t round = 0; round < 2000; ++round)
    seen.insert(AnycastRouter::site_at_round(selection, round));
  EXPECT_GE(seen.size(), 2u);
  for (uint32_t site : seen)
    EXPECT_TRUE(site == selection.primary_site || site == selection.secondary_site);
}

// Property: routing a VP through a prepared selection is routing it with
// route_at, for VPs in every region, detoured VPs and VPs that see a local
// site, over every letter, both families and rounds 0..500: the same site,
// a bit-equal RTT, and the same selection, flip and churn counters.
TEST(Routing, PickFromPreparedSelectionAgreesWithRouteAt) {
  Fixture f;
  std::vector<VantageView> vps;
  const std::array<std::pair<double, double>, util::kRegionCount> anchors = {{
      {-1.3, 36.8},    // Africa
      {1.3, 103.8},    // Asia
      {50.1, 8.7},     // Europe
      {40.7, -74.0},   // North America
      {-23.5, -46.6},  // South America
      {-33.9, 151.2},  // Oceania
  }};
  for (size_t r = 0; r < util::kRegionCount; ++r) {
    for (uint32_t k = 0; k < 2; ++k) {
      VantageView vp = f.vp_at(static_cast<uint32_t>(7000 + 10 * r + k),
                               static_cast<util::Region>(r),
                               anchors[r].first + k, anchors[r].second - k);
      vp.churn_multiplier = k == 0 ? 1.0 : 40.0;
      vps.push_back(vp);
    }
  }
  // i.root North America v6: the AS6939 detour takes about half the VPs.
  size_t detoured = 0;
  for (uint32_t id = 7100; detoured < 2 && id < 7200; ++id) {
    VantageView vp = f.vp_at(id, util::Region::NorthAmerica, 30 + id % 20,
                             -120 + id % 45);
    if (!f.router->prepare_selection(vp, 8, util::IpFamily::V6).via_detour)
      continue;
    vp.churn_multiplier = 20;
    vps.push_back(vp);
    ++detoured;
  }
  ASSERT_EQ(detoured, 2u);
  // VPs peering at the facility of an IXP-local site, which they then see.
  size_t local = 0;
  for (const AnycastSite& site : f.topology.sites) {
    if (local == 3) break;
    if (site.type != SiteType::Local || site.local_scope != LocalScope::IxpLocal)
      continue;
    VantageView vp = f.vp_at(static_cast<uint32_t>(7200 + local), site.region,
                             site.location.lat_deg, site.location.lon_deg);
    vp.connectivity = {site.facility};
    vp.churn_multiplier = 40;
    const auto selection =
        f.router->prepare_selection(vp, site.root_index, util::IpFamily::V4);
    if (f.topology.sites[selection.primary_site].type != SiteType::Local &&
        f.topology.sites[selection.secondary_site].type != SiteType::Local)
      continue;
    vps.push_back(vp);
    ++local;
  }
  ASSERT_EQ(local, 3u);

  obs::Recorder routed_obs, picked_obs;
  AnycastRouter routed(f.topology, f.config, routed_obs.obs());
  AnycastRouter picked(f.topology, f.config, picked_obs.obs());
  size_t mismatches = 0;
  for (const VantageView& vp : vps) {
    for (uint32_t root = 0; root < 13; ++root) {
      for (util::IpFamily family : {util::IpFamily::V4, util::IpFamily::V6}) {
        const auto selection = picked.prepare_selection(vp, root, family);
        for (uint64_t round = 0; round <= 500; ++round) {
          const RouteResult want = routed.route_at(vp, root, family, round);
          const RouteResult got = picked.pick(selection, family, round);
          const bool same =
              got.site_id == want.site_id &&
              std::bit_cast<uint64_t>(got.rtt_ms) ==
                  std::bit_cast<uint64_t>(want.rtt_ms) &&
              got.via_detour == want.via_detour &&
              got.detour_as == want.detour_as &&
              AnycastRouter::site_at_round(selection, round) == want.site_id;
          if (!same && mismatches++ == 0)
            ADD_FAILURE() << "vp " << vp.vp_id << " root " << root
                          << " family " << util::to_string(family)
                          << " round " << round << ": picked site "
                          << got.site_id << " (" << got.rtt_ms
                          << " ms), route_at site " << want.site_id << " ("
                          << want.rtt_ms << " ms)";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  for (const char* name :
       {"netsim.route_selections", "netsim.site_flips", "netsim.churn_events"}) {
    for (const char* family : {"v4", "v6"}) {
      const obs::LabelSet labels{{"family", family}};
      const uint64_t want = routed_obs.metrics().counter_value(name, labels);
      EXPECT_EQ(picked_obs.metrics().counter_value(name, labels), want)
          << name << " " << family;
      EXPECT_GT(want, 0u) << name << " " << family;
    }
  }
}

TEST(Routing, DetourRulesChangeRttDistribution) {
  // i.root North America IPv6: many VPs go via the fast AS6939 path
  // (mean 23.4ms), making mean v6 RTT lower than v4 (paper: 46.2 vs 62.6).
  Fixture f;
  std::vector<double> v4, v6;
  int via_detour_v6 = 0;
  for (uint32_t id = 0; id < 300; ++id) {
    VantageView vp = f.vp_at(2000 + id, util::Region::NorthAmerica,
                             30 + id % 20, -120 + id % 45);
    RouteResult route_v4 = f.router->route(vp, 8, util::IpFamily::V4);
    RouteResult route_v6 = f.router->route(vp, 8, util::IpFamily::V6);
    v4.push_back(route_v4.rtt_ms);
    v6.push_back(route_v6.rtt_ms);
    if (route_v6.via_detour) {
      ++via_detour_v6;
      EXPECT_EQ(route_v6.detour_as, 6939u);
    }
  }
  EXPECT_GT(via_detour_v6, 100);  // ~55% of VPs
  EXPECT_LT(util::mean(v6), util::mean(v4));
}

TEST(Routing, SecondToLastHopSharedAcrossCoLocatedRoots) {
  // At least some VP observes two roots behind the same second-to-last hop.
  Fixture f;
  bool found_sharing = false;
  for (uint32_t id = 0; id < 100 && !found_sharing; ++id) {
    VantageView vp = f.vp_at(3000 + id, util::Region::Europe, 48 + id % 12,
                             -5 + id % 30);
    std::map<RouterId, int> hops;
    for (uint32_t root = 0; root < 13; ++root) {
      RouteResult route = f.router->route(vp, root, util::IpFamily::V4);
      if (route.second_to_last_hop != 0) ++hops[route.second_to_last_hop];
    }
    for (const auto& [hop, count] : hops)
      if (count >= 2) found_sharing = true;
  }
  EXPECT_TRUE(found_sharing);
}

TEST(Routing, HopLossProducesZeroMarker) {
  Fixture f;
  int lost = 0, total = 0;
  for (uint32_t id = 0; id < 200; ++id) {
    VantageView vp = f.vp_at(4000 + id, util::Region::NorthAmerica,
                             25 + id % 25, -120 + id % 50);
    for (uint32_t root = 0; root < 13; ++root) {
      RouteResult route = f.router->route(vp, root, util::IpFamily::V4);
      if (route.second_to_last_hop == 0) ++lost;
      ++total;
    }
  }
  double loss_rate = static_cast<double>(lost) / total;
  EXPECT_NEAR(loss_rate, kHopLossProbability, 0.02);
}

TEST(Routing, AnnouncedRoutesMatchDataPlane) {
  Fixture f;
  size_t agree = 0, total = 0;
  for (uint32_t id = 0; id < 50; ++id) {
    VantageView vp = f.vp_at(5000 + id, util::Region::Europe, 45 + id % 15,
                             id % 25);
    for (uint32_t root : {1u, 5u, 10u}) {
      auto routes = f.router->announced_routes(vp, root, util::IpFamily::V4);
      ASSERT_FALSE(routes.empty());
      // Costs are sorted ascending.
      for (size_t i = 1; i < routes.size(); ++i)
        EXPECT_GE(routes[i].path_cost, routes[i - 1].path_cost);
      // AS paths start at the VP's AS and end at the operator's origin.
      for (const auto& route : routes) {
        ASSERT_GE(route.as_path.size(), 2u);
        EXPECT_EQ(route.as_path.front(), vp.asn);
        EXPECT_EQ(route.as_path.back(), 64496 + root);
      }
      RouteResult selected = f.router->route(vp, root, util::IpFamily::V4);
      ++total;
      if (routes[0].site_id == selected.site_id) ++agree;
    }
  }
  // Absent detours (none for these roots in Europe), the control-plane best
  // path must be the data-plane selection.
  EXPECT_EQ(agree, total);
}

TEST(Routing, AnnouncedRoutesRespectMaxAndVisibility) {
  Fixture f;
  VantageView vp = f.vp_at(6001, util::Region::NorthAmerica, 40.7, -74.0);
  auto routes = f.router->announced_routes(vp, 5, util::IpFamily::V4, 4);
  EXPECT_LE(routes.size(), 4u);
  // b.root has only 6 sites worldwide.
  auto b_routes = f.router->announced_routes(vp, 1, util::IpFamily::V4, 100);
  EXPECT_LE(b_routes.size(), 6u);
  for (const auto& route : b_routes)
    EXPECT_EQ(f.topology.sites[route.site_id].root_index, 1u);
}

// The campaigns of the four library scenarios, built once per process: the
// topologies their deployment overrides make and every VP they route.
const std::vector<std::unique_ptr<measure::Campaign>>& library_campaigns() {
  static const auto* campaigns = [] {
    auto* built = new std::vector<std::unique_ptr<measure::Campaign>>;
    for (const scenario::ScenarioSpec& spec : scenario::library())
      built->push_back(std::make_unique<measure::Campaign>(
          scenario::apply(spec).campaign));
    return built;
  }();
  return *campaigns;
}

constexpr std::array<util::IpFamily, 2> kFamilies = {util::IpFamily::V4,
                                                     util::IpFamily::V6};
// The SLO monitor's route-fallback width (scenario `route-fallback on`).
constexpr size_t kFallbackWidth = 8;

// FNV-1a over the bytes of a 64-bit value.
void fnv(uint64_t& hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
}

// The full sort (announced_routes) is the reference the one-pass ranking is
// held to below, so it is pinned itself: its site ids and cost bits over
// every VP x letter x family of the four library campaigns hash to a
// recorded value. A cost-model change that both would share (visibility,
// noise, the local discount) moves it. std::sort leaves equal costs in an
// order of its choosing, and a partial selection matches it only without
// ties, so no two reachable sites of one (VP, letter, family) may share a
// cost either: the ranking's tie-break by site id then never decides an
// order on the library scenarios, and their exports do not depend on it.
TEST(Routing, LibraryRankingsHaveNoTiesAndMatchRecordedDigest) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  size_t rankings = 0;
  size_t ties = 0;
  for (const auto& campaign : library_campaigns()) {
    const AnycastRouter& router = campaign->router();
    for (const auto& vp : campaign->vantage_points()) {
      for (uint32_t root = 0; root < 13; ++root) {
        for (util::IpFamily family : kFamilies) {
          const auto routes = router.announced_routes(
              vp.view, root, family, std::numeric_limits<size_t>::max());
          ++rankings;
          fnv(digest, routes.size());
          for (size_t i = 0; i < routes.size(); ++i) {
            fnv(digest, routes[i].site_id);
            fnv(digest, std::bit_cast<uint64_t>(routes[i].path_cost));
            if (i > 0 && !(routes[i - 1].path_cost < routes[i].path_cost) &&
                ties++ == 0)
              ADD_FAILURE() << "vp " << vp.view.vp_id << " root " << root
                            << " family " << util::to_string(family)
                            << ": sites " << routes[i - 1].site_id << " and "
                            << routes[i].site_id << " share cost "
                            << routes[i].path_cost;
          }
        }
      }
    }
  }
  EXPECT_EQ(ties, 0u);
  EXPECT_EQ(rankings, 4u * 675 * 13 * 2);
  EXPECT_EQ(digest, 0xb5a33cb3b599c9a9ULL) << std::hex << digest;
}

// Every selection reads the ranking, on every VP x letter x family of the
// library campaigns:
// - prepare_selection takes the top 2, so absent a detour its primary and
//   secondary are entries 0 and 1 of the full sort;
// - the SLO monitor's catchment table makes one prepare_selections pass
//   per (VP, letter), whose k cheapest sites per family must be the full
//   sort's first k site ids in order, and whose two selections must be
//   prepare_selection's for each family, bit for bit, detours included.
TEST(Routing, SelectionsAndCatchmentRankingFollowTheFullSort) {
  const size_t k = kFallbackWidth;
  std::vector<AnycastRouter::RankedSite> top(2 * k);
  const std::array<std::span<AnycastRouter::RankedSite>, 2> spans = {
      std::span(top).first(k), std::span(top).subspan(k)};
  size_t mismatches = 0;
  size_t detoured = 0;
  size_t short_rankings = 0;
  for (const auto& campaign : library_campaigns()) {
    const AnycastRouter& router = campaign->router();
    for (const auto& vp : campaign->vantage_points()) {
      for (uint32_t root = 0; root < 13; ++root) {
        std::array<AnycastRouter::Selection, 2> selections;
        const size_t ranked =
            router.prepare_selections(vp.view, root, selections, spans);
        if (ranked < k) ++short_rankings;
        for (size_t f = 0; f < 2; ++f) {
          const util::IpFamily family = kFamilies[f];
          const auto routes = router.announced_routes(vp.view, root, family, k);
          ASSERT_FALSE(routes.empty());
          std::vector<uint32_t> want, got;
          for (const auto& route : routes) want.push_back(route.site_id);
          for (size_t i = 0; i < ranked; ++i) got.push_back(spans[f][i].site_id);
          const auto single = router.prepare_selection(vp.view, root, family);
          const auto& both = selections[f];
          if (single.via_detour) ++detoured;
          const bool top_two =
              single.via_detour ||
              (single.primary_site == want[0] &&
               single.secondary_site == want[want.size() > 1 ? 1 : 0]);
          const bool same =
              both.primary_site == single.primary_site &&
              both.secondary_site == single.secondary_site &&
              std::bit_cast<uint64_t>(both.primary_rtt_ms) ==
                  std::bit_cast<uint64_t>(single.primary_rtt_ms) &&
              std::bit_cast<uint64_t>(both.secondary_rtt_ms) ==
                  std::bit_cast<uint64_t>(single.secondary_rtt_ms) &&
              both.via_detour == single.via_detour &&
              both.detour_as == single.detour_as &&
              std::bit_cast<uint64_t>(both.flip_probability) ==
                  std::bit_cast<uint64_t>(single.flip_probability) &&
              both.flip_stream == single.flip_stream;
          if ((got != want || !top_two || !same) && mismatches++ == 0)
            ADD_FAILURE() << "vp " << vp.view.vp_id << " root " << root
                          << " family " << util::to_string(family) << ": "
                          << got.size() << " of " << want.size()
                          << " top sites ranked, equal: " << (got == want)
                          << "; selection " << single.primary_site << "/"
                          << single.secondary_site << ", full sort's top two "
                          << top_two << "; both-family selection "
                          << both.primary_site << "/" << both.secondary_site
                          << ", equal: " << same;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Detoured VPs and letters with fewer sites than k (b.root has 6) are
  // both covered.
  EXPECT_GT(detoured, 0u);
  EXPECT_GT(short_rankings, 0u);
}

TEST(Routing, TracerouteHopsEndAtSite) {
  Fixture f;
  VantageView vp = f.vp_at(7, util::Region::Oceania, -33.9, 151.2);
  RouteResult route = f.router->route(vp, 10, util::IpFamily::V6);
  ASSERT_GE(route.hops.size(), 4u);
  // Second-to-last entry in the hop list is the recorded hop.
  EXPECT_EQ(route.hops[route.hops.size() - 2], route.second_to_last_hop);
}

}  // namespace
}  // namespace rootsim::netsim
