// Resolver client populations for the passive ISP/IXP perspective.
//
// Each client models one recursive-resolver installation (aggregated, as the
// paper does, to its /24 or /48 prefix). Behavioural knobs reproduce the
// causal mechanisms of §6:
//   * priming (RFC 8109): a primed resolver re-reads the root NS set at
//     startup and immediately uses the new b.root address; the paper
//     conjectures priming support correlates with newer (IPv6-capable)
//     stacks. Priming clients touch the *old* address once per day at most.
//   * reluctance: un-primed resolvers keep using the address baked into
//     their hints file — 13 years after j.root's change the old address
//     still drew traffic (Wessels et al.).
//   * eagerness differs per region and family: ISP clients shifted 87.1%
//     (v4) / 96.3% (v6); at IXPs 60.8% (EU) vs 16.5% (NA) of v6 traffic
//     moved.
#pragma once

#include <cstdint>
#include <vector>

#include "util/geo.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/timeutil.h"

namespace rootsim::traffic {

/// One resolver client (identified by its privacy prefix).
struct Client {
  util::Prefix prefix;
  util::IpFamily family = util::IpFamily::V4;
  util::Region region = util::Region::Europe;
  /// Mean DNS flows this client generates to the root system per day
  /// (heavy-tailed across clients).
  double flows_per_day = 10;
  /// Whether this resolver primes (re-discovers root addresses at startup).
  bool primes = false;
  /// If it does not prime: does it ever adopt the new address, and when?
  bool eventually_adopts = true;
  /// Days after the zone change at which the client switches (if it does).
  double adoption_delay_days = 1.0;

  /// Share of this client's b.root traffic on the NEW address at time `t`
  /// (0 before the change; ramps per behaviour after).
  double new_address_share(util::UnixTime t, util::UnixTime change_time) const;

  /// Expected number of touches on the OLD address per day at time `t`
  /// (primed clients keep touching it ~once a day — the Fig. 8 signal).
  double old_address_flows_per_day(util::UnixTime t,
                                   util::UnixTime change_time) const;
};

struct PopulationConfig {
  uint64_t seed = 42;
  size_t clients = 20000;
  /// Fraction of clients on IPv6 (dual-stack resolvers counted per family).
  double ipv6_share = 0.35;
  /// Priming probability per family — the paper's conjecture: newer
  /// (IPv6-capable) software primes more often.
  double priming_prob_v4 = 0.45;
  double priming_prob_v6 = 0.80;
  /// Probability that a non-priming client never adopts the new address.
  double never_adopts_prob_v4 = 0.129;  // -> 87.1% total v4 shift at the ISP
  double never_adopts_prob_v6 = 0.037;  // -> 96.3% total v6 shift
  /// Regional weights over clients (Europe-heavy for the ISP dataset).
  std::array<double, util::kRegionCount> region_weights = {0.02, 0.08, 0.55,
                                                           0.25, 0.05, 0.05};
};

/// Generates a deterministic client population.
std::vector<Client> generate_population(const PopulationConfig& config);

/// Population presets per dataset. The ISP preset reproduces the §6 in-family
/// shift ratios (87.1% v4 / 96.3% v6); the IXP presets reproduce the regional
/// IPv6 eagerness split (Europe 60.8% shifted vs North America 16.5%).
PopulationConfig isp_population_config();
PopulationConfig ixp_population_config_eu();
PopulationConfig ixp_population_config_na();

}  // namespace rootsim::traffic
