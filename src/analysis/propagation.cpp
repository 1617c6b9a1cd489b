#include "analysis/propagation.h"

#include "rss/server.h"

namespace rootsim::analysis {

namespace {

// One real SOA query against an instance; returns the served serial.
uint32_t soa_serial_at(const rss::RootServerInstance& instance,
                       util::UnixTime when, size_t& query_counter) {
  dns::Message query = dns::make_query(
      static_cast<uint16_t>(when & 0xFFFF), dns::Name(), dns::RRType::SOA);
  dns::Message response = instance.handle_udp_query(query, when);
  ++query_counter;
  for (const auto& rr : response.answers)
    if (const auto* soa = std::get_if<dns::SoaData>(&rr.rdata))
      return soa->serial;
  return 0;
}

}  // namespace

PropagationReport measure_soa_propagation(const measure::Campaign& campaign,
                                          util::UnixTime serial_bump,
                                          const PropagationOptions& options) {
  PropagationReport report;
  report.serial_bump = serial_bump;
  report.old_serial = campaign.authority().serial_at(serial_bump - 1);
  report.new_serial = campaign.authority().serial_at(serial_bump);

  const netsim::Topology& topology = campaign.topology();
  for (uint32_t root = 0; root < rss::kRootCount; ++root) {
    RootPropagation& row = report.per_root[root];
    row.letter = static_cast<char>('a' + root);
    const auto& sites = topology.sites_by_root[root];
    size_t step = std::max<size_t>(1, sites.size() / options.max_instances_per_root);
    for (size_t i = 0; i < sites.size(); i += step) {
      const netsim::AnycastSite& site = topology.sites[sites[i]];
      rss::InstanceBehavior behavior;
      behavior.propagation_lag_s = rss::site_propagation_lag_s(site.id);
      rss::RootServerInstance instance(campaign.authority(), campaign.catalog(),
                                       root, site.identity, behavior);
      // Adaptive per-second search: bisect [bump, bump + window] for the
      // first second at which the instance serves the new serial.
      util::UnixTime lo = serial_bump;
      util::UnixTime hi = serial_bump + kPropagationSearchWindowS;
      if (soa_serial_at(instance, hi, row.soa_queries_sent) !=
          report.new_serial) {
        row.delays_s.push_back(static_cast<double>(kPropagationSearchWindowS));
        continue;
      }
      if (soa_serial_at(instance, lo, row.soa_queries_sent) ==
          report.new_serial) {
        row.delays_s.push_back(0);
        continue;
      }
      while (hi - lo > 1) {
        util::UnixTime mid = lo + (hi - lo) / 2;
        if (soa_serial_at(instance, mid, row.soa_queries_sent) ==
            report.new_serial)
          hi = mid;
        else
          lo = mid;
      }
      row.delays_s.push_back(static_cast<double>(hi - serial_bump));
    }
    row.summary = util::summarize(row.delays_s);
    report.total_queries += row.soa_queries_sent;
  }
  return report;
}

}  // namespace rootsim::analysis
