#include "analysis/rssac_metrics.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/propagation.h"

namespace rootsim::analysis {

RssacCells replay_rssac_samples(const measure::Campaign& campaign,
                                const RssacOptions& options) {
  const netsim::AnycastRouter& router = campaign.router();
  const measure::Schedule& schedule = campaign.schedule();
  util::UnixTime start = schedule.config().start;
  util::UnixTime end = schedule.config().end;

  // Publication latency reuses the propagation experiment (one zone edit);
  // each polled instance's delay is one Publication sample. The probed edit
  // is the mid-campaign 12h serial boundary, derived from the schedule so
  // every scenario measures propagation inside its own horizon.
  util::UnixTime edit = start + (end - start) / 2;
  edit -= edit % (12 * 3600);
  PropagationOptions propagation_options;
  propagation_options.max_instances_per_root = options.propagation_instances;
  auto propagation =
      measure_soa_propagation(campaign, edit, propagation_options);

  RssacCells cells;
  for (uint32_t root = 0; root < rss::kRootCount; ++root) {
    obs::SloSample sample;
    for (const auto& vp : campaign.vantage_points()) {
      for (util::IpFamily family : {util::IpFamily::V4, util::IpFamily::V6}) {
        obs::SloCollector::Cell& cell =
            cells[root * 2 + (family == util::IpFamily::V6 ? 1 : 0)];
        auto selection = router.prepare_selection(vp.view, root, family);
        netsim::RouteResult route = router.route(vp.view, root, family);
        sample.kind = obs::SloSample::Kind::Latency;
        sample.value = route.rtt_ms;
        cell.record(sample);
        // Sample rounds: the probe fails when the selected site is dark.
        for (size_t s = 0; s < options.sampled_rounds; ++s) {
          uint64_t round =
              (s * 1009 + vp.view.vp_id) % schedule.round_count();
          uint32_t site =
              netsim::AnycastRouter::site_at_round(selection, round);
          sample.kind = obs::SloSample::Kind::Availability;
          sample.ok = rss::site_available(site, schedule.round_time(round),
                                          start, end);
          cell.record(sample);
        }
      }
    }
    sample.kind = obs::SloSample::Kind::Publication;
    for (double delay_s : propagation.per_root[root].delays_s) {
      sample.value = delay_s;
      cells[root * 2].record(sample);
    }
  }
  return cells;
}

RssacReport rssac_report_from_cells(const RssacCells& cells) {
  RssacReport report;
  for (uint32_t root = 0; root < rss::kRootCount; ++root) {
    RootServiceMetrics& metrics = report.per_root[root];
    metrics.letter = static_cast<char>('a' + root);
    const obs::SloCollector::Cell& v4 = cells[root * 2];
    const obs::SloCollector::Cell& v6 = cells[root * 2 + 1];
    metrics.availability_v4 =
        v4.probes ? static_cast<double>(v4.answered) / v4.probes : 1.0;
    metrics.availability_v6 =
        v6.probes ? static_cast<double>(v6.answered) / v6.probes : 1.0;
    metrics.median_rtt_v4 = v4.rtt_us.quantile(0.5) / 1000.0;
    metrics.median_rtt_v6 = v6.rtt_us.quantile(0.5) / 1000.0;
    metrics.p95_rtt_v4 = v4.rtt_us.quantile(0.95) / 1000.0;
    metrics.p95_rtt_v6 = v6.rtt_us.quantile(0.95) / 1000.0;
    metrics.median_publication_latency_s = v4.publication_s.quantile(0.5);
    report.worst_availability =
        std::min({report.worst_availability, metrics.availability_v4,
                  metrics.availability_v6});
  }
  return report;
}

RssacReport compute_rssac_metrics(const measure::Campaign& campaign,
                                  const RssacOptions& options) {
  return rssac_report_from_cells(replay_rssac_samples(campaign, options));
}

ClusterFailureImpact simulate_cluster_failure(const measure::Campaign& campaign) {
  ClusterFailureImpact impact;
  const netsim::Topology& topology = campaign.topology();
  const netsim::AnycastRouter& router = campaign.router();

  // Find the facility hosting the most distinct roots (the §5 cluster).
  std::map<netsim::FacilityId, std::set<uint32_t>> roots_at;
  for (const auto& site : topology.sites)
    roots_at[site.facility].insert(site.root_index);
  for (const auto& [facility, roots] : roots_at) {
    if (roots.size() > impact.roots_hosted) {
      impact.roots_hosted = roots.size();
      impact.facility = facility;
    }
  }

  std::vector<double> deltas;
  for (const auto& vp : campaign.vantage_points()) {
    for (uint32_t root = 0; root < rss::kRootCount; ++root) {
      for (util::IpFamily family : {util::IpFamily::V4, util::IpFamily::V6}) {
        ++impact.selections_total;
        netsim::RouteResult route = router.route(vp.view, root, family);
        const netsim::AnycastSite& selected = topology.sites[route.site_id];
        if (selected.facility != impact.facility) continue;
        // The selected site went dark: fail over to the best announced route
        // at a different facility. Compare like-with-like using the fiber
        // RTT of the respective distances (jitter cancels in expectation).
        auto routes = router.announced_routes(vp.view, root, family, 16);
        const netsim::AnycastSite* fallback = nullptr;
        for (const auto& candidate : routes) {
          const netsim::AnycastSite& site = topology.sites[candidate.site_id];
          if (site.facility != impact.facility) {
            fallback = &site;
            break;
          }
        }
        ++impact.selections_moved;
        if (!fallback) continue;  // nowhere to go: counted as moved anyway
        double old_rtt =
            util::fiber_rtt_ms(util::haversine_km(vp.view.location,
                                                  selected.location)) +
            2.0;
        double new_rtt =
            util::fiber_rtt_ms(util::haversine_km(vp.view.location,
                                                  fallback->location)) +
            2.0;
        deltas.push_back(new_rtt - old_rtt);
      }
    }
  }
  impact.rtt_delta_ms = util::summarize(deltas);
  return impact;
}

}  // namespace rootsim::analysis
