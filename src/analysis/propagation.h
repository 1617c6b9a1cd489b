// Zone-distribution (synchronization) measurement — the future-work
// experiment of the paper's Appendix E: "it would be preferable to issue
// higher frequency measurements, ideally up to a per-second resolution...
// limited to, e.g., SOA records".
//
// Around a zone edit, every instance of every root is polled with real SOA
// queries at one-second resolution (adaptively bisected — the instance's
// serving state is deterministic, so bisection visits the same switch point
// per-second polling would) to find when the new serial appears. The output
// is the per-root distribution of propagation delays.
#pragma once

#include <array>

#include "measure/campaign.h"
#include "util/stats.h"

namespace rootsim::analysis {

struct RootPropagation {
  char letter = 'a';
  std::vector<double> delays_s;  // per polled instance
  util::Summary summary;
  size_t soa_queries_sent = 0;
};

struct PropagationReport {
  util::UnixTime serial_bump = 0;
  uint32_t old_serial = 0;
  uint32_t new_serial = 0;
  std::array<RootPropagation, rss::kRootCount> per_root{};
  size_t total_queries = 0;
};

/// Longest delay searched for (instances slower than this are reported at
/// the cap).
inline constexpr int64_t kPropagationSearchWindowS = 3600;

struct PropagationOptions {
  /// Cap on instances polled per root (the biggest deployments have 345).
  size_t max_instances_per_root = 64;
};

/// Measures propagation of the zone edit at `serial_bump` (must be a
/// 00:00/12:00 edit boundary of the simulated authority).
PropagationReport measure_soa_propagation(const measure::Campaign& campaign,
                                          util::UnixTime serial_bump,
                                          const PropagationOptions& options = {});

}  // namespace rootsim::analysis
