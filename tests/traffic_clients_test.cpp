#include "traffic/clients.h"

#include "util/stats.h"
#include <gtest/gtest.h>

namespace rootsim::traffic {
namespace {

util::UnixTime change = util::make_time(2023, 11, 27);

TEST(Clients, PopulationSizeAndDeterminism) {
  PopulationConfig config;
  config.clients = 5000;
  auto a = generate_population(config);
  auto b = generate_population(config);
  EXPECT_EQ(a.size(), 5000u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].primes, b[i].primes);
  }
}

TEST(Clients, PrefixesArePrivacyAggregated) {
  PopulationConfig config;
  config.clients = 2000;
  for (const auto& client : generate_population(config)) {
    if (client.family == util::IpFamily::V4) {
      EXPECT_EQ(client.prefix.length(), 24);
    } else {
      EXPECT_EQ(client.prefix.length(), 48);
    }
  }
}

TEST(Clients, Ipv6ShareApproximatelyConfigured) {
  PopulationConfig config;
  config.clients = 10000;
  config.ipv6_share = 0.35;
  auto clients = generate_population(config);
  size_t v6 = 0;
  for (const auto& c : clients)
    if (c.family == util::IpFamily::V6) ++v6;
  EXPECT_NEAR(static_cast<double>(v6) / clients.size(), 0.35, 0.02);
}

TEST(Clients, PrimingMoreCommonOnV6) {
  PopulationConfig config;
  config.clients = 10000;
  auto clients = generate_population(config);
  size_t v4_total = 0, v4_priming = 0, v6_total = 0, v6_priming = 0;
  for (const auto& c : clients) {
    if (c.family == util::IpFamily::V4) {
      ++v4_total;
      if (c.primes) ++v4_priming;
    } else {
      ++v6_total;
      if (c.primes) ++v6_priming;
    }
  }
  double v4_rate = static_cast<double>(v4_priming) / v4_total;
  double v6_rate = static_cast<double>(v6_priming) / v6_total;
  EXPECT_GT(v6_rate, v4_rate);  // the paper's conjecture, baked in
  EXPECT_NEAR(v4_rate, config.priming_prob_v4, 0.03);
  EXPECT_NEAR(v6_rate, config.priming_prob_v6, 0.03);
}

TEST(Clients, NewShareZeroBeforeChange) {
  PopulationConfig config;
  config.clients = 500;
  for (const auto& client : generate_population(config)) {
    EXPECT_DOUBLE_EQ(
        client.new_address_share(change - util::kSecondsPerDay, change), 0.0);
  }
}

TEST(Clients, PrimingClientsSwitchWithinADay) {
  Client client;
  client.primes = true;
  EXPECT_DOUBLE_EQ(client.new_address_share(change + util::kSecondsPerDay, change),
                   1.0);
  // ... but keep touching the old address ~once a day.
  EXPECT_DOUBLE_EQ(
      client.old_address_flows_per_day(change + 2 * util::kSecondsPerDay, change),
      1.0);
}

TEST(Clients, ReluctantClientNeverSwitches) {
  Client client;
  client.primes = false;
  client.eventually_adopts = false;
  client.flows_per_day = 100;
  util::UnixTime much_later = change + 150 * util::kSecondsPerDay;
  EXPECT_DOUBLE_EQ(client.new_address_share(much_later, change), 0.0);
  EXPECT_DOUBLE_EQ(client.old_address_flows_per_day(much_later, change), 100.0);
}

TEST(Clients, DelayedAdopterSwitchesAfterDelay) {
  Client client;
  client.primes = false;
  client.eventually_adopts = true;
  client.adoption_delay_days = 10;
  EXPECT_DOUBLE_EQ(
      client.new_address_share(change + 5 * util::kSecondsPerDay, change), 0.0);
  EXPECT_DOUBLE_EQ(
      client.new_address_share(change + 11 * util::kSecondsPerDay, change), 1.0);
}

TEST(Clients, PresetsDifferInEagerness) {
  auto eu = ixp_population_config_eu();
  auto na = ixp_population_config_na();
  EXPECT_GT(eu.priming_prob_v6, na.priming_prob_v6);
  EXPECT_LT(eu.never_adopts_prob_v6, na.never_adopts_prob_v6);
  auto isp = isp_population_config();
  EXPECT_LT(isp.never_adopts_prob_v6, isp.never_adopts_prob_v4);
}

TEST(Clients, FlowVolumesHeavyTailed) {
  PopulationConfig config;
  config.clients = 20000;
  auto clients = generate_population(config);
  std::vector<double> flows;
  for (const auto& c : clients) flows.push_back(c.flows_per_day);
  double median = util::percentile(flows, 0.5);
  double p999 = util::percentile(flows, 0.999);
  EXPECT_LT(median, 100);
  EXPECT_GT(p999, 5000);  // Fig. 8's x-axis reaches 100,000 flows/client
}

}  // namespace
}  // namespace rootsim::traffic
