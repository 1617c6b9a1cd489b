// RSSAC047-style service metrics computed from the campaign's vantage
// points, tying the measurement back to the governance goals (RSSAC037)
// the paper's introduction frames the root server system with:
//   * availability     — fraction of probes answered per root (each root's
//     selected site may be in an outage window);
//   * response latency — median/95th RTT per root per family;
//   * publication latency — how long a new serial takes to reach instances
//     (from the propagation analysis);
//   * clustered-site stress test — the §5 what-if: take the most co-located
//     facility offline and measure how many (VP, root) selections move and
//     how much their RTT changes.
//
// The batch path is a *replay into the SLO plane's accumulator*
// (obs/slo.h): compute_rssac_metrics records its sampling plan sample by
// sample with SloCollector::Cell::record, into one Cell per (letter,
// family) stream — the accumulator and stream order the SLO call uses — and
// reads the report out of those cells. The post-hoc numbers and the online
// monitor therefore share one accumulator implementation and cannot drift —
// any change to how a metric is defined changes both or neither (pinned by
// the replay-equivalence and digest tests).
#pragma once

#include <array>

#include "measure/campaign.h"
#include "obs/slo.h"
#include "rss/outages.h"
#include "util/stats.h"

namespace rootsim::analysis {

struct RootServiceMetrics {
  char letter = 'a';
  double availability_v4 = 1.0;
  double availability_v6 = 1.0;
  double median_rtt_v4 = 0;
  double median_rtt_v6 = 0;
  double p95_rtt_v4 = 0;
  double p95_rtt_v6 = 0;
  double median_publication_latency_s = 0;
};

struct RssacReport {
  std::array<RootServiceMetrics, rss::kRootCount> per_root{};
  /// RSSAC047's availability target is 99.96% for the service as a whole.
  double worst_availability = 1.0;
};

struct RssacOptions {
  /// Rounds sampled per (VP, root, family) for availability estimation.
  size_t sampled_rounds = 40;
  /// Instances sampled per root for publication latency.
  size_t propagation_instances = 16;
};

/// The whole campaign's samples of each (letter, family) stream, in one cell
/// per stream: stream root * 2 + v6, as in the SLO call.
using RssacCells = std::array<obs::SloCollector::Cell, rss::kRootCount * 2>;

/// Records the batch sampling plan into one cell per stream: one
/// Availability sample per sampled (VP, root, family, round), one Latency
/// sample per (VP, root, family) steady route, and the propagation
/// experiment's per-instance delays as Publication samples (recorded on the
/// v4 stream; the batch metric has no family dimension).
RssacCells replay_rssac_samples(const measure::Campaign& campaign,
                                const RssacOptions& options);

/// Reads the RSSAC047 report out of the streams' cells.
RssacReport rssac_report_from_cells(const RssacCells& cells);

/// replay_rssac_samples + rssac_report_from_cells.
RssacReport compute_rssac_metrics(const measure::Campaign& campaign,
                                  const RssacOptions& options = {});

/// The §5 stress test: all instances at the facility hosting the most roots
/// go dark; reports how many (VP, root, family) selections shift and the
/// RTT deltas those clients experience.
struct ClusterFailureImpact {
  netsim::FacilityId facility = 0;
  size_t roots_hosted = 0;
  size_t selections_total = 0;
  size_t selections_moved = 0;
  util::Summary rtt_delta_ms;  // over moved selections (new - old)
};

ClusterFailureImpact simulate_cluster_failure(const measure::Campaign& campaign);

}  // namespace rootsim::analysis
