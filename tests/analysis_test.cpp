#include <gtest/gtest.h>

#include "analysis/colocation.h"
#include "analysis/coverage.h"
#include "analysis/distance.h"
#include "analysis/rtt.h"
#include "analysis/stability.h"
#include "analysis/zonemd_report.h"
#include "scenario/apply.h"

namespace rootsim::analysis {
namespace {

// One shared scaled-down campaign for all analysis tests (built once).
// The paper timeline: these tests assert figures from the paper's campaign.
const measure::Campaign& test_campaign() {
  static const measure::Campaign* campaign = [] {
    measure::CampaignConfig config = scenario::paper_campaign_config();
    config.zone.tld_count = 25;
    config.zone.rsa_modulus_bits = 512;
    config.vp_scale = 0.25;
    return new measure::Campaign(config);
  }();
  return *campaign;
}

TEST(Colocation, HeadlineFractionInPaperBand) {
  auto report = compute_colocation(test_campaign());
  // Paper: ~70% of VPs observe co-location of >= 2 roots.
  EXPECT_GT(report.fraction_vps_with_colocation, 0.5);
  EXPECT_LT(report.fraction_vps_with_colocation, 0.95);
  EXPECT_GE(report.max_colocated_roots, 3);
}

TEST(Colocation, ReducedRedundancyBounded) {
  auto report = compute_colocation(test_campaign());
  for (const auto& row : report.per_vp) {
    EXPECT_GE(row.reduced_redundancy_v4, 0);
    EXPECT_LE(row.reduced_redundancy_v4, 12);
    EXPECT_GE(row.reduced_redundancy_v6, 0);
    EXPECT_LE(row.reduced_redundancy_v6, 12);
  }
}

TEST(Colocation, HistogramsCoverAllVps) {
  auto report = compute_colocation(test_campaign());
  uint64_t v4_total = 0;
  for (auto region : util::all_regions())
    v4_total += report.histogram_v4[static_cast<size_t>(region)].total();
  EXPECT_EQ(v4_total, report.per_vp.size());
}

TEST(Colocation, AblationMissedHopsLowerBound) {
  // Treating missed hops as unique (the paper's rule) must never *increase*
  // reduced redundancy relative to dropping them.
  ColocationOptions strict;
  strict.missed_hops_are_unique = true;
  ColocationOptions drop;
  drop.missed_hops_are_unique = false;
  auto strict_report = compute_colocation(test_campaign(), strict);
  auto drop_report = compute_colocation(test_campaign(), drop);
  ASSERT_EQ(strict_report.per_vp.size(), drop_report.per_vp.size());
  for (size_t i = 0; i < strict_report.per_vp.size(); ++i)
    EXPECT_LE(strict_report.per_vp[i].reduced_redundancy_v4,
              drop_report.per_vp[i].reduced_redundancy_v4 + 12);
  // And in aggregate the strict rule reports no more co-location.
  EXPECT_LE(strict_report.fraction_vps_with_colocation,
            drop_report.fraction_vps_with_colocation + 0.05);
}

TEST(Stability, BStableGChurny) {
  StabilityOptions options;
  options.round_stride = 8;  // keep test fast; counts are rescaled
  auto report = compute_stability(test_campaign(), options);
  const auto& b = report.per_root[1];
  const auto& g = report.per_root[6];
  EXPECT_LT(b.median_v4, 20);
  EXPECT_GT(g.median_v4, b.median_v4);
  EXPECT_GT(g.median_v6, g.median_v4);  // the paper's g.root v6 effect
}

TEST(Stability, CecdfMonotoneDecreasing) {
  StabilityOptions options;
  options.round_stride = 16;
  auto report = compute_stability(test_campaign(), options);
  auto points = report.cecdf(6, {0, 1, 10, 100, 1000});
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].fraction_v4, points[i - 1].fraction_v4 + 1e-12);
    EXPECT_LE(points[i].fraction_v6, points[i - 1].fraction_v6 + 1e-12);
  }
  // Most VPs see at least one change for g.root (subsampled at stride 16, so
  // low-churn VPs can be missed; the full-resolution bench shows ~95%).
  EXPECT_GT(points[0].fraction_v4, 0.45);
}

TEST(Distance, PaperFractionsForBroot) {
  auto report = compute_distance(test_campaign(), 1, util::IpFamily::V4);
  // Paper: 78.2% of b.root v4 requests optimal; 79.5% of clients < 1,000 km.
  EXPECT_NEAR(report.fraction_optimal(), 0.782, 0.12);
  EXPECT_NEAR(report.fraction_clients_below(1000), 0.795, 0.12);
}

TEST(Distance, InflationNonNegativeUnlessLocal) {
  auto report = compute_distance(test_campaign(), 5, util::IpFamily::V4);
  for (const auto& sample : report.samples) {
    if (!sample.via_local_site) {
      EXPECT_GE(sample.actual_km + 1e-9, 0);
    }
    EXPECT_GE(sample.closest_global_km, 0);
  }
  // Some requests land below the diagonal only via local sites.
  for (const auto& sample : report.samples) {
    if (sample.actual_km < sample.closest_global_km - 1.0) {
      EXPECT_TRUE(sample.via_local_site);
    }
  }
}

TEST(Distance, HeatmapRenders) {
  auto report = compute_distance(test_campaign(), 12, util::IpFamily::V6);
  std::string map = report.render_heatmap();
  EXPECT_NE(map.find("closest global site"), std::string::npos);
  EXPECT_GT(map.size(), 500u);
}

TEST(Rtt, RegionalEffectsFromPaper) {
  auto report = compute_rtt(test_campaign());
  // i.root North America: mean v6 < mean v4 (paper: 46.2 vs 62.6 ms).
  const RttCell& i_na = report.cell(util::Region::NorthAmerica, 9);
  EXPECT_LT(i_na.summary_v6.mean, i_na.summary_v4.mean);
  // i.root South America: v6 much worse than v4 (paper: 50.9 vs 23.8 ms).
  const RttCell& i_sa = report.cell(util::Region::SouthAmerica, 9);
  EXPECT_GT(i_sa.summary_v6.mean, i_sa.summary_v4.mean * 1.3);
  // l.root South America: v6 below v4 (paper: 39% lower).
  const RttCell& l_sa = report.cell(util::Region::SouthAmerica, 12);
  EXPECT_LT(l_sa.summary_v6.mean, l_sa.summary_v4.mean);
  // a.root South America: v4 above v6 (paper: 168.3 vs 140.0 ms).
  const RttCell& a_sa = report.cell(util::Region::SouthAmerica, 0);
  EXPECT_GT(a_sa.summary_v4.mean, a_sa.summary_v6.mean);
}

TEST(Rtt, EuropeFastForLargeDeployments) {
  auto report = compute_rtt(test_campaign());
  // f/k/l root medians in Europe are small (dense deployments).
  for (size_t column : {6u, 11u, 12u}) {
    const RttCell& cell = report.cell(util::Region::Europe, column);
    EXPECT_LT(cell.summary_v4.median, 60) << rtt_column_label(column);
  }
}

TEST(Rtt, ColumnsLabeled) {
  EXPECT_EQ(rtt_column_label(0), "a.root");
  EXPECT_EQ(rtt_column_label(1), "b.root (new)");
  EXPECT_EQ(rtt_column_label(2), "b.root (old)");
  EXPECT_EQ(rtt_column_label(3), "c.root");
  EXPECT_EQ(rtt_column_label(13), "m.root");
}

TEST(Rtt, RenderRegionProducesRows) {
  auto report = compute_rtt(test_campaign());
  std::string text = report.render_region(util::Region::Europe);
  EXPECT_NE(text.find("b.root (new)"), std::string::npos);
  EXPECT_NE(text.find("m.root"), std::string::npos);
}

TEST(Coverage, GlobalBetterThanLocal) {
  auto report = compute_coverage(test_campaign());
  int global_sites = 0, global_covered = 0, local_sites = 0, local_covered = 0;
  for (const auto& root : report.worldwide) {
    global_sites += root.global.sites;
    global_covered += root.global.covered;
    local_sites += root.local.sites;
    local_covered += root.local.covered;
  }
  double global_rate = static_cast<double>(global_covered) / global_sites;
  double local_rate = static_cast<double>(local_covered) / local_sites;
  EXPECT_GT(global_rate, local_rate) << "the paper's central coverage asymmetry";
  EXPECT_GT(global_rate, 0.6);
  EXPECT_LT(local_rate, 0.7);
}

TEST(Coverage, SmallDeploymentsFullyCovered) {
  auto report = compute_coverage(test_campaign());
  // b, c, g, h (6-12 global sites) are fully covered in the paper. At 25%
  // VP scale a single remote site can be missed; allow one.
  for (size_t root : {1u, 2u, 6u, 7u}) {
    EXPECT_GE(report.worldwide[root].global.covered,
              report.worldwide[root].global.sites - 1)
        << static_cast<char>('a' + root);
  }
}

TEST(Coverage, TotalsMatchTable1SiteCounts) {
  auto report = compute_coverage(test_campaign());
  EXPECT_EQ(report.worldwide[0].total().sites, 56);   // a
  EXPECT_EQ(report.worldwide[3].total().sites, 209);  // d
  EXPECT_EQ(report.worldwide[5].total().sites, 345);  // f
  EXPECT_EQ(report.worldwide[12].total().sites, 16);  // m
}

TEST(Coverage, MapRenders) {
  auto report = compute_coverage(test_campaign());
  std::string map = render_coverage_map(test_campaign(), report, 5);
  EXPECT_GT(map.size(), 100u);
  // f.root has both covered and (many) sites; expect at least one 'G'.
  EXPECT_NE(map.find('G'), std::string::npos);
}

TEST(ZonemdReport, Table2Buckets) {
  auto observations = test_campaign().run_zone_audit(50);
  auto report = summarize_zone_audit(observations);
  EXPECT_GT(report.rows.size(), 2u);
  bool has_not_incepted = false, has_expired = false, has_bogus = false;
  for (const auto& row : report.rows) {
    if (row.reason == "Sig. not incepted") has_not_incepted = true;
    if (row.reason == "Signature expired") has_expired = true;
    if (row.reason == "Bogus Signature") has_bogus = true;
    EXPECT_GT(row.observations, 0u);
    EXPECT_GE(row.last_observed, row.first_observed);
    EXPECT_FALSE(row.vp_ids.empty());
  }
  EXPECT_TRUE(has_not_incepted);
  EXPECT_TRUE(has_expired);
  EXPECT_TRUE(has_bogus);
  EXPECT_GT(report.clean_observations, 40u);
  EXPECT_GT(report.failing_observations, 20u);
}

TEST(ZonemdReport, BitflipExampleShowsDifferingRecords) {
  std::string example = render_bitflip_example(test_campaign());
  EXPECT_NE(example.find("as served (intact):"), std::string::npos);
  EXPECT_NE(example.find("as received (bitflipped):"), std::string::npos);
}

}  // namespace
}  // namespace rootsim::analysis
