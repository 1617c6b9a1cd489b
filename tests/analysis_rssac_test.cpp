#include "analysis/rssac_metrics.h"

#include <gtest/gtest.h>

#include <bit>

#include "scenario/apply.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::analysis {
namespace {

// Paper-timeline campaign (RSSAC047 bounds assume the paper's schedule).
const measure::Campaign& test_campaign() {
  static const measure::Campaign* campaign = [] {
    measure::CampaignConfig config = scenario::paper_campaign_config();
    config.zone.tld_count = 25;
    config.zone.rsa_modulus_bits = 512;
    config.vp_scale = 0.1;
    return new measure::Campaign(config);
  }();
  return *campaign;
}

TEST(Outages, ScheduleIsDeterministicAndBounded) {
  util::UnixTime start = util::make_time(2023, 7, 3);
  util::UnixTime end = util::make_time(2023, 12, 24);
  auto a = rss::site_outages(17, start, end);
  auto b = rss::site_outages(17, start, end);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_GE(a[i].start, start);
    EXPECT_LE(a[i].end, end);
    EXPECT_LE(a[i].end - a[i].start, 6 * 3600);
  }
}

TEST(Outages, AvailabilityConsistentWithSchedule) {
  util::UnixTime start = util::make_time(2023, 7, 3);
  util::UnixTime end = util::make_time(2023, 12, 24);
  for (uint32_t site = 0; site < 50; ++site) {
    for (const auto& window : rss::site_outages(site, start, end)) {
      if (window.end <= window.start) continue;
      EXPECT_FALSE(rss::site_available(site, window.start, start, end));
      EXPECT_TRUE(rss::site_available(site, window.end, start, end));
    }
  }
}

// The per-call table must answer exactly as site_available_at, which draws
// the site's windows afresh: every site of the full-scale topology, at each
// window's edges and at random instants, under letter-, region- and
// type-scoped scripted events.
TEST(Outages, TableAnswersLikeSiteAvailableAt) {
  const netsim::Topology& topology = test_campaign().topology();
  const util::UnixTime start = util::make_time(2023, 7, 3);
  const util::UnixTime end = util::make_time(2023, 12, 24);
  rss::OutageModelConfig config;
  config.outages_per_site = 4.0;  // more windows, more edges to check
  std::vector<rss::ScriptedOutage> scripted(3);
  scripted[0].root_index = 5;
  scripted[0].start = util::make_time(2023, 8, 1);
  scripted[0].end = util::make_time(2023, 9, 1);
  scripted[0].site_fraction = 0.5;
  scripted[0].region = static_cast<int>(util::Region::Asia);
  scripted[0].label = "asia-half";
  scripted[1].start = util::make_time(2023, 10, 1);
  scripted[1].end = util::make_time(2023, 10, 3);
  scripted[1].site_type = static_cast<int>(netsim::SiteType::Global);
  scripted[1].label = "globals";
  scripted[2].root_index = 2;
  scripted[2].start = util::make_time(2023, 11, 1);
  scripted[2].end = util::make_time(2023, 11, 2);
  scripted[2].site_fraction = 0.9;
  scripted[2].label = "c-letter";

  const rss::OutageTable table(topology.sites.size(), start, end, config);
  util::Rng rng(7);
  size_t dark = 0;
  for (const netsim::AnycastSite& site : topology.sites) {
    const int root = static_cast<int>(site.root_index);
    const int region = static_cast<int>(site.region);
    const int type = static_cast<int>(site.type);
    std::vector<util::UnixTime> instants;
    for (const rss::OutageWindow& w : rss::site_outages(site.id, start, end, config))
      instants.insert(instants.end(), {w.start - 1, w.start, w.end - 1, w.end});
    for (const rss::ScriptedOutage& o : scripted)
      instants.insert(instants.end(), {o.start - 1, o.start, o.end - 1, o.end});
    for (int i = 0; i < 8; ++i)
      instants.push_back(start + static_cast<int64_t>(rng.uniform(
                                     static_cast<uint64_t>(end - start))));
    for (const util::UnixTime t : instants) {
      const bool want = rss::site_available_at(site.id, root, t, start, end,
                                               config, scripted, region, type);
      ASSERT_EQ(table.available_at(site.id, root, t, scripted, region, type),
                want)
          << "site " << site.id << " at " << t;
      if (!want) ++dark;
    }
  }
  EXPECT_GT(dark, topology.sites.size());  // the edges were exercised
}

TEST(Outages, RareOverall) {
  // Expected downtime per site: ~1.5 outages x ~median 20 min over 174 days
  // => availability well above 99%.
  util::UnixTime start = util::make_time(2023, 7, 3);
  util::UnixTime end = util::make_time(2023, 12, 24);
  int64_t down = 0, total = 0;
  for (uint32_t site = 0; site < 200; ++site) {
    for (const auto& window : rss::site_outages(site, start, end))
      down += window.end - window.start;
    total += end - start;
  }
  EXPECT_LT(static_cast<double>(down) / total, 0.01);
}

TEST(Rssac, MetricsWithinSaneBounds) {
  RssacOptions options;
  options.sampled_rounds = 10;
  options.propagation_instances = 4;
  auto report = compute_rssac_metrics(test_campaign(), options);
  for (const auto& metrics : report.per_root) {
    EXPECT_GT(metrics.availability_v4, 0.98) << metrics.letter;
    EXPECT_LE(metrics.availability_v4, 1.0);
    EXPECT_GT(metrics.availability_v6, 0.98);
    EXPECT_GT(metrics.median_rtt_v4, 0);
    EXPECT_LE(metrics.median_rtt_v4, metrics.p95_rtt_v4 + 1e-9);
    EXPECT_GE(metrics.median_publication_latency_s, 0);
  }
  EXPECT_GT(report.worst_availability, 0.98);
}

// The replay-equivalence acceptance criterion: the batch RSSAC047 report
// must equal what the SLO plane's cells read out of the replayed samples —
// including when two replays' cells are folded with Cell::merge_from, the
// accumulator's own merge. If the batch path ever grew its own aggregation
// again, this is the test that catches the drift.
TEST(Rssac, BatchReportMatchesStreamingCollectorReplay) {
  RssacOptions options;
  options.sampled_rounds = 10;
  options.propagation_instances = 4;
  auto batch = compute_rssac_metrics(test_campaign(), options);

  // Same sampling plan replayed into one set of cells, and replayed twice
  // with the second replay's cells merged into the first: ratios and
  // quantiles are invariant under doubling the sample set, so the merged
  // report must match — the merge cannot skew the rates.
  const RssacCells direct = replay_rssac_samples(test_campaign(), options);
  const RssacCells second = replay_rssac_samples(test_campaign(), options);
  RssacCells merged = replay_rssac_samples(test_campaign(), options);
  for (size_t stream = 0; stream < merged.size(); ++stream) {
    merged[stream].merge_from(second[stream]);
    EXPECT_GT(direct[stream].probes, 0u) << stream;
    EXPECT_EQ(merged[stream].probes, 2 * direct[stream].probes) << stream;
    EXPECT_EQ(merged[stream].rtt_us.count(), 2 * direct[stream].rtt_us.count())
        << stream;
    EXPECT_EQ(merged[stream].publication_s.count(),
              2 * direct[stream].publication_s.count())
        << stream;
  }

  auto streaming = rssac_report_from_cells(direct);
  auto doubled = rssac_report_from_cells(merged);
  for (size_t root = 0; root < streaming.per_root.size(); ++root) {
    const auto& b = batch.per_root[root];
    const auto& s = streaming.per_root[root];
    EXPECT_EQ(b.letter, s.letter);
    EXPECT_DOUBLE_EQ(b.availability_v4, s.availability_v4) << b.letter;
    EXPECT_DOUBLE_EQ(b.availability_v6, s.availability_v6) << b.letter;
    EXPECT_DOUBLE_EQ(b.median_rtt_v4, s.median_rtt_v4) << b.letter;
    EXPECT_DOUBLE_EQ(b.median_rtt_v6, s.median_rtt_v6) << b.letter;
    EXPECT_DOUBLE_EQ(b.p95_rtt_v4, s.p95_rtt_v4) << b.letter;
    EXPECT_DOUBLE_EQ(b.p95_rtt_v6, s.p95_rtt_v6) << b.letter;
    EXPECT_DOUBLE_EQ(b.median_publication_latency_s,
                     s.median_publication_latency_s) << b.letter;
    // Ratios and quantiles are invariant under doubling the sample set.
    const auto& d = doubled.per_root[root];
    EXPECT_DOUBLE_EQ(d.availability_v4, s.availability_v4) << b.letter;
    EXPECT_DOUBLE_EQ(d.availability_v6, s.availability_v6) << b.letter;
    EXPECT_DOUBLE_EQ(d.median_rtt_v4, s.median_rtt_v4) << b.letter;
    EXPECT_DOUBLE_EQ(d.median_rtt_v6, s.median_rtt_v6) << b.letter;
    EXPECT_DOUBLE_EQ(d.p95_rtt_v4, s.p95_rtt_v4) << b.letter;
    EXPECT_DOUBLE_EQ(d.p95_rtt_v6, s.p95_rtt_v6) << b.letter;
    EXPECT_DOUBLE_EQ(d.median_publication_latency_s,
                     s.median_publication_latency_s) << b.letter;
  }
  EXPECT_DOUBLE_EQ(batch.worst_availability, streaming.worst_availability);
  EXPECT_DOUBLE_EQ(doubled.worst_availability, streaming.worst_availability);
}

// FNV-1a 64, in hex, of the bit patterns of every field of a report.
std::string report_digest(const RssacReport& report) {
  std::string bits;
  const auto put = [&bits](double value) {
    bits += util::format("%016llx,", static_cast<unsigned long long>(
                                         std::bit_cast<uint64_t>(value)));
  };
  for (const RootServiceMetrics& metrics : report.per_root) {
    bits += metrics.letter;
    put(metrics.availability_v4);
    put(metrics.availability_v6);
    put(metrics.median_rtt_v4);
    put(metrics.median_rtt_v6);
    put(metrics.p95_rtt_v4);
    put(metrics.p95_rtt_v6);
    put(metrics.median_publication_latency_s);
  }
  put(report.worst_availability);
  return util::format("%016llx",
                      static_cast<unsigned long long>(util::fnv1a(bits)));
}

// The equivalence test above compares the batch report with a replay of
// itself, so a change that moves both alike passes it. These digests pin
// the report's bits, for the suite's options and for the defaults;
// re-record one only for an intended change of the report.
TEST(Rssac, ReportMatchesRecordedDigest) {
  RssacOptions options;
  options.sampled_rounds = 10;
  options.propagation_instances = 4;
  EXPECT_EQ(report_digest(compute_rssac_metrics(test_campaign(), options)),
            "d6767b6d0281fa88");
  EXPECT_EQ(report_digest(compute_rssac_metrics(test_campaign())),
            "a86481273cb2ad23");
}

TEST(Rssac, ClusterFailureMovesSomeSelections) {
  auto impact = simulate_cluster_failure(test_campaign());
  EXPECT_GE(impact.roots_hosted, 5u);  // a genuinely clustered facility
  EXPECT_GT(impact.selections_total, 0u);
  EXPECT_GT(impact.selections_moved, 0u);
  EXPECT_LT(impact.selections_moved, impact.selections_total / 2)
      << "one facility must not carry most of the world's selections";
  // Failover can only increase distance-derived RTT (next-best site).
  EXPECT_GE(impact.rtt_delta_ms.median, 0);
}

}  // namespace
}  // namespace rootsim::analysis
