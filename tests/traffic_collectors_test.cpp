#include "traffic/collectors.h"

#include <gtest/gtest.h>

#include "analysis/traffic_report.h"

namespace rootsim::traffic {
namespace {

using util::make_time;

const util::UnixTime kChange = make_time(2023, 11, 27);

PassiveCollector make_isp_collector(size_t clients = 6000) {
  PopulationConfig population = isp_population_config();
  population.clients = clients;
  return PassiveCollector(generate_population(population),
                          isp_collector_config(), kChange);
}

TEST(Collectors, DailyBucketsCoverWindow) {
  auto collector = make_isp_collector(1500);
  auto days = collector.collect(make_time(2024, 2, 5), make_time(2024, 2, 12));
  EXPECT_EQ(days.size(), 7u);
  for (const auto& day : days) {
    EXPECT_GT(day.total_flows(), 0);
    EXPECT_EQ(day.day, util::day_start(day.day));
  }
}

TEST(Collectors, SharesSumToOne) {
  auto collector = make_isp_collector(1500);
  auto days = collector.collect(make_time(2024, 2, 5), make_time(2024, 2, 8));
  for (const auto& day : days) {
    double sum = 0;
    for (const auto& [key, flows] : day.flows) sum += day.share(key);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Collectors, BeforeChangeOldSubnetDominatesBroot) {
  auto collector = make_isp_collector();
  auto days = collector.collect(make_time(2023, 10, 8), make_time(2023, 10, 9));
  auto shares = analysis::broot_shares(days);
  ASSERT_EQ(shares.size(), 1u);
  // Paper 2023-10-08: old subnets carry 76.1-88.9% (v4) + 10-21% (v6);
  // new subnets only ~0.8%.
  EXPECT_GT(shares[0].v4_old, 0.6);
  EXPECT_GT(shares[0].v6_old, 0.05);
  EXPECT_LT(shares[0].v4_new + shares[0].v6_new, 0.03);
}

TEST(Collectors, AfterChangeNewV4Dominates) {
  auto collector = make_isp_collector();
  auto days = collector.collect(make_time(2024, 2, 5), make_time(2024, 3, 4));
  auto shares = analysis::broot_shares(days);
  double v4_new = 0, v4_old = 0, v6_new = 0, v6_old = 0;
  for (const auto& s : shares) {
    v4_new += s.v4_new;
    v4_old += s.v4_old;
    v6_new += s.v6_new;
    v6_old += s.v6_old;
  }
  v4_new /= shares.size();
  v4_old /= shares.size();
  v6_new /= shares.size();
  v6_old /= shares.size();
  // Paper: new v4 76.2%, old v4 11.3%, new v6 12.0% (old v6 small).
  EXPECT_GT(v4_new, 0.55);
  EXPECT_LT(v4_old, 0.25);
  EXPECT_GT(v4_old, 0.02);
  EXPECT_GT(v6_new, 0.04);
  EXPECT_LT(v6_old, v6_new);
}

TEST(Collectors, IspShiftRatiosMatchPaper) {
  auto collector = make_isp_collector(20000);
  auto days = collector.collect(make_time(2024, 2, 5), make_time(2024, 3, 4));
  auto ratio = analysis::shift_ratio(days);
  // Paper §6: 87.1% of IPv4 and 96.3% of IPv6 traffic shifted.
  EXPECT_NEAR(ratio.v4, 0.871, 0.05);
  EXPECT_NEAR(ratio.v6, 0.963, 0.03);
  EXPECT_GT(ratio.v6, ratio.v4);
}

TEST(Collectors, IxpRegionalEagernessSplit) {
  PopulationConfig eu_pop = ixp_population_config_eu();
  eu_pop.clients = 12000;
  PopulationConfig na_pop = ixp_population_config_na();
  na_pop.clients = 12000;
  PassiveCollector eu(generate_population(eu_pop), ixp_collector_config_eu(),
                      kChange);
  PassiveCollector na(generate_population(na_pop), ixp_collector_config_na(),
                      kChange);
  auto eu_days = eu.collect(make_time(2023, 12, 8), make_time(2023, 12, 22));
  auto na_days = na.collect(make_time(2023, 12, 8), make_time(2023, 12, 22));
  auto eu_ratio = analysis::shift_ratio(eu_days);
  auto na_ratio = analysis::shift_ratio(na_days);
  // Paper: Europe 60.8% vs North America 16.5% of IPv6 traffic shifted.
  EXPECT_NEAR(eu_ratio.v6, 0.608, 0.10);
  EXPECT_NEAR(na_ratio.v6, 0.165, 0.08);
  EXPECT_GT(eu_ratio.v6, na_ratio.v6 + 0.2);
}

TEST(Collectors, IxpMixDominatedByKandD) {
  PopulationConfig pop = ixp_population_config_eu();
  pop.clients = 5000;
  PassiveCollector ixp(generate_population(pop), ixp_collector_config_eu(),
                       kChange);
  auto days = ixp.collect(make_time(2023, 11, 1), make_time(2023, 11, 8));
  auto shares = analysis::root_shares(days);
  // k.root and d.root together carry the plurality (paper Fig. 13).
  double k_share = shares.share[10], d_share = shares.share[3];
  EXPECT_GT(k_share + d_share, 0.35);
  for (size_t root = 0; root < 13; ++root) {
    if (root != 10 && root != 3) {
      EXPECT_LT(shares.share[root], k_share);
    }
  }
}

TEST(Collectors, BrootTotalShareStableAcrossChange) {
  // Paper Fig. 12: b.root 4.90% before vs 4.46% after — the address change
  // does not change b.root's overall popularity.
  auto collector = make_isp_collector();
  auto before = analysis::root_shares(
      collector.collect(make_time(2023, 10, 7), make_time(2023, 10, 9)));
  auto after = analysis::root_shares(
      collector.collect(make_time(2024, 2, 9), make_time(2024, 2, 16)));
  EXPECT_NEAR(before.share[1], 0.049, 0.02);
  EXPECT_NEAR(after.share[1], before.share[1], 0.015);
}

TEST(Collectors, ClientFlowRecordsExposePrimingSignal) {
  auto collector = make_isp_collector(8000);
  auto records = collector.collect_client_flows(make_time(2024, 2, 5),
                                                make_time(2024, 2, 12));
  ASSERT_FALSE(records.empty());
  auto cdfs = analysis::client_flow_cdfs(records, 7);
  const analysis::ClientFlowCdf* old_v6 = nullptr;
  const analysis::ClientFlowCdf* new_v6 = nullptr;
  for (const auto& cdf : cdfs) {
    if (cdf.subnet.root_index != 1) continue;
    if (cdf.subnet.family != util::IpFamily::V6) continue;
    if (cdf.subnet.old_b_subnet) old_v6 = &cdf;
    else new_v6 = &cdf;
  }
  ASSERT_NE(old_v6, nullptr);
  ASSERT_NE(new_v6, nullptr);
  // Fig. 8: the old b.root v6 subnet sees far more single-contact clients
  // (priming touches) than the new subnet.
  EXPECT_GT(old_v6->single_contact_fraction,
            new_v6->single_contact_fraction + 0.2);
}

TEST(Collectors, DeterministicCollection) {
  auto collector_a = make_isp_collector(1000);
  auto collector_b = make_isp_collector(1000);
  auto days_a = collector_a.collect(make_time(2024, 2, 5), make_time(2024, 2, 7));
  auto days_b = collector_b.collect(make_time(2024, 2, 5), make_time(2024, 2, 7));
  ASSERT_EQ(days_a.size(), days_b.size());
  for (size_t i = 0; i < days_a.size(); ++i)
    EXPECT_EQ(days_a[i].flows, days_b[i].flows);
}

}  // namespace
}  // namespace rootsim::traffic
