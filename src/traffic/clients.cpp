#include "traffic/clients.h"

#include <algorithm>
#include <cmath>

namespace rootsim::traffic {

double Client::new_address_share(util::UnixTime t,
                                 util::UnixTime change_time) const {
  if (t < change_time) return 0.0;
  double days_since = static_cast<double>(t - change_time) /
                      static_cast<double>(util::kSecondsPerDay);
  if (primes) {
    // Primed resolvers pick the new address up at the next priming cycle —
    // effectively within a day.
    return days_since >= 0.5 ? 1.0 : days_since * 2.0;
  }
  if (!eventually_adopts) return 0.0;
  return days_since >= adoption_delay_days ? 1.0 : 0.0;
}

double Client::old_address_flows_per_day(util::UnixTime t,
                                         util::UnixTime change_time) const {
  double new_share = new_address_share(t, change_time);
  double old_flows = flows_per_day * (1.0 - new_share);
  if (t >= change_time && primes && new_share >= 1.0) {
    // Fully-switched priming clients still touch the old address about once
    // per day when re-priming — the single-contact signal of Fig. 8.
    return 1.0;
  }
  return old_flows;
}

PopulationConfig isp_population_config() {
  return PopulationConfig{};  // defaults are calibrated to the ISP dataset
}

PopulationConfig ixp_population_config_eu() {
  PopulationConfig config;
  config.seed = 421;
  config.ipv6_share = 0.5;  // the IXP analysis focusses on IPv6 traffic
  // Europe: 60.8% of IPv6 traffic shifts. CPE/resolver fleets behind IXP
  // peers are older than ISP resolvers: less priming, more reluctance.
  config.priming_prob_v6 = 0.35;
  config.never_adopts_prob_v6 = 0.392;
  config.priming_prob_v4 = 0.30;
  config.never_adopts_prob_v4 = 0.45;
  config.region_weights = {0.0, 0.0, 1.0, 0.0, 0.0, 0.0};
  return config;
}

PopulationConfig ixp_population_config_na() {
  PopulationConfig config = ixp_population_config_eu();
  config.seed = 422;
  // North America: only 16.5% of IPv6 traffic shifts to the new subnet.
  config.priming_prob_v6 = 0.08;
  config.never_adopts_prob_v6 = 0.835;
  config.region_weights = {0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
  return config;
}

std::vector<Client> generate_population(const PopulationConfig& config) {
  // Flow volume distribution (log-normal over clients): most clients send a
  // handful of flows/day, heavy hitters send hundreds of thousands.
  constexpr double kFlowsMu = 2.5;
  constexpr double kFlowsSigma = 2.0;
  util::Rng rng(config.seed);
  util::Rng addr_rng = rng.fork("clients/addresses");
  util::Rng behave_rng = rng.fork("clients/behaviour");

  std::vector<Client> clients;
  clients.reserve(config.clients);
  for (size_t i = 0; i < config.clients; ++i) {
    Client c;
    bool v6 = behave_rng.chance(config.ipv6_share);
    c.family = v6 ? util::IpFamily::V6 : util::IpFamily::V4;
    c.region = util::all_regions()[behave_rng.weighted_index(config.region_weights)];
    if (v6) {
      std::array<uint16_t, 8> hextets{};
      hextets[0] = 0x2400 + static_cast<uint16_t>(addr_rng.uniform(0x1C00));
      hextets[1] = static_cast<uint16_t>(addr_rng.uniform(0x10000));
      hextets[2] = static_cast<uint16_t>(addr_rng.uniform(0x10000));
      c.prefix = util::Prefix(util::IpAddress::v6(hextets), 48);
    } else {
      uint32_t host = static_cast<uint32_t>(addr_rng.uniform(0xE0000000u));
      c.prefix = util::Prefix(util::IpAddress::v4(host), 24);
    }
    c.flows_per_day =
        std::max(1.0, behave_rng.lognormal(kFlowsMu, kFlowsSigma));
    double priming_prob = v6 ? config.priming_prob_v6 : config.priming_prob_v4;
    c.primes = behave_rng.chance(priming_prob);
    if (!c.primes) {
      double never_prob =
          v6 ? config.never_adopts_prob_v6 : config.never_adopts_prob_v4;
      // Rescale: the never-adopt share is defined over ALL clients of a
      // family, but only non-primers can be reluctant.
      double conditional =
          std::min(1.0, never_prob / std::max(1e-9, 1.0 - priming_prob));
      c.eventually_adopts = !behave_rng.chance(conditional);
      c.adoption_delay_days = 0.5 + behave_rng.exponential(1.0 / 6.0);
    }
    clients.push_back(std::move(c));
  }
  return clients;
}

}  // namespace rootsim::traffic
