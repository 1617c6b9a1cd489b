#include "traffic/ixp_set.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace rootsim::traffic {

std::vector<IxpSite> build_ixp_set(util::UnixTime broot_change,
                                   const IxpSetConfig& config) {
  constexpr int kEuropeIxps = 9;
  constexpr int kNorthAmericaIxps = 5;  // 14 total, as in the paper
  // Log-sigma of per-IXP eagerness jitter around the regional behaviour.
  constexpr double kEagernessJitter = 0.12;
  util::Rng rng(config.seed);
  std::vector<IxpSite> ixps;
  auto build_region = [&](util::Region region, int count, const char* prefix) {
    for (int i = 0; i < count; ++i) {
      IxpSite ixp;
      ixp.name = util::format("%s-IXP-%02d", prefix, i + 1);
      ixp.region = region;
      // Zipf-ish sizes: the largest IXP dwarfs the smallest.
      ixp.peer_count = static_cast<size_t>(600.0 / (i + 1)) + 40;

      PopulationConfig population = region == util::Region::Europe
                                        ? ixp_population_config_eu()
                                        : ixp_population_config_na();
      population.seed = rng.next();
      population.clients = ixp.peer_count * config.clients_per_peer;
      // Per-IXP eagerness jitter: CPE fleets behind different IXPs differ.
      double jitter = std::exp(rng.normal(0, kEagernessJitter));
      population.priming_prob_v6 =
          std::min(0.95, population.priming_prob_v6 * jitter);
      population.never_adopts_prob_v6 =
          std::min(0.95, population.never_adopts_prob_v6 / jitter);

      CollectorConfig collector = region == util::Region::Europe
                                      ? ixp_collector_config_eu()
                                      : ixp_collector_config_na();
      collector.seed = rng.next();
      ixp.collector = std::make_unique<PassiveCollector>(
          generate_population(population), collector, broot_change);
      ixps.push_back(std::move(ixp));
    }
  };
  build_region(util::Region::Europe, kEuropeIxps, "EU");
  build_region(util::Region::NorthAmerica, kNorthAmericaIxps, "NA");
  return ixps;
}

std::vector<DailyTraffic> aggregate_ixps(const std::vector<IxpSite>& ixps,
                                         util::Region region,
                                         util::UnixTime start,
                                         util::UnixTime end) {
  std::vector<DailyTraffic> aggregate;
  for (const IxpSite& ixp : ixps) {
    if (ixp.region != region) continue;
    auto days = ixp.collector->collect(start, end);
    if (aggregate.empty()) {
      aggregate = std::move(days);
      continue;
    }
    for (size_t i = 0; i < days.size() && i < aggregate.size(); ++i) {
      for (const auto& [key, flows] : days[i].flows)
        aggregate[i].flows[key] += flows;
      for (const auto& [key, clients] : days[i].clients)
        aggregate[i].clients[key] += clients;
    }
  }
  return aggregate;
}

}  // namespace rootsim::traffic
