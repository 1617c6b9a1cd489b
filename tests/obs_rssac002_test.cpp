// The RSSAC002 telemetry plane: log-linear histograms (layout, interpolated
// quantiles, exact merges), the unique-source sketch, and the per-instance
// daily collector. The load-bearing property throughout is merge
// associativity: sharded accumulation must reproduce a serial run's export
// byte for byte.
#include "obs/rssac002.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/loglin.h"
#include "util/timeutil.h"

namespace rootsim::obs {
namespace {

TEST(LogLinearHistogram, UnitBucketsAreExactBelowSixteen) {
  for (uint64_t v = 0; v < 16; ++v) {
    uint32_t index = LogLinearHistogram::bucket_index(v);
    EXPECT_EQ(LogLinearHistogram::bucket_lower(index), v);
    EXPECT_EQ(LogLinearHistogram::bucket_upper(index), v + 1);
  }
}

TEST(LogLinearHistogram, BucketsTileTheRangeMonotonically) {
  // Every value maps into a bucket whose [lower, upper) range contains it,
  // and bucket boundaries are non-overlapping and increasing.
  std::vector<uint64_t> probes = {0,   1,    15,   16,   17,    31,   32,
                                  100, 1023, 1024, 1536, 12345, 65535};
  for (uint64_t v : probes) {
    uint32_t index = LogLinearHistogram::bucket_index(v);
    EXPECT_GE(v, LogLinearHistogram::bucket_lower(index)) << v;
    EXPECT_LT(v, LogLinearHistogram::bucket_upper(index)) << v;
  }
  for (uint32_t i = 1; i < 4 * LogLinearHistogram::kSubBuckets; ++i) {
    EXPECT_EQ(LogLinearHistogram::bucket_lower(i),
              LogLinearHistogram::bucket_upper(i - 1))
        << "gap or overlap at bucket " << i;
  }
}

TEST(LogLinearHistogram, CountSumMax) {
  LogLinearHistogram h;
  h.observe(3);
  h.observe(700, 2);
  h.observe(65000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 3u + 700u * 2 + 65000u);
  EXPECT_EQ(h.max(), 65000u);
  EXPECT_DOUBLE_EQ(LogLinearHistogram().quantile(0.5), 0.0);
}

TEST(LogLinearHistogram, QuantilesInterpolateInsideTheBucket) {
  // 1024 uniform values across one octave: the median must land near the
  // middle of the octave, not snap to a sub-bucket's upper bound. Sub-bucket
  // width in [1024, 2048) is 64, so one bucket of slack is the error bound.
  LogLinearHistogram h;
  for (uint64_t v = 1024; v < 2048; ++v) h.observe(v);
  EXPECT_NEAR(h.quantile(0.5), 1536.0, 64.0);
  EXPECT_NEAR(h.quantile(0.25), 1280.0, 64.0);
  EXPECT_NEAR(h.quantile(0.9), 1946.0, 64.0);
  // Extremes are pinned to the data range, not to bucket edges beyond it.
  EXPECT_GE(h.quantile(0.0), 1024.0);
  EXPECT_LE(h.quantile(1.0), 2048.0);

  // A spike inside one unit bucket reads back exactly.
  LogLinearHistogram spike;
  spike.observe(7, 100);
  EXPECT_GE(spike.quantile(0.5), 7.0);
  EXPECT_LT(spike.quantile(0.5), 8.0);
}

// Per-bucket counts of a histogram, read back through nonzero_buckets()
// into the full fixed layout.
std::vector<uint64_t> dense_buckets(const LogLinearHistogram& h) {
  std::vector<uint64_t> dense(LogLinearHistogram::kBucketCount, 0);
  for (const LogLinearHistogram::Bucket& bucket : h.nonzero_buckets()) {
    const uint32_t index = LogLinearHistogram::bucket_index(bucket.lower);
    EXPECT_EQ(LogLinearHistogram::bucket_lower(index), bucket.lower);
    EXPECT_EQ(LogLinearHistogram::bucket_upper(index), bucket.upper);
    dense[index] += bucket.count;
  }
  return dense;
}

void expect_same_histogram(const LogLinearHistogram& got,
                           const LogLinearHistogram& want,
                           const std::string& what) {
  EXPECT_EQ(got.count(), want.count()) << what;
  EXPECT_EQ(got.sum(), want.sum()) << what;
  EXPECT_EQ(got.max(), want.max()) << what;
  const auto got_buckets = got.nonzero_buckets();
  const auto want_buckets = want.nonzero_buckets();
  ASSERT_EQ(got_buckets.size(), want_buckets.size()) << what;
  for (size_t i = 0; i < got_buckets.size(); ++i) {
    EXPECT_EQ(got_buckets[i].lower, want_buckets[i].lower) << what << " #" << i;
    EXPECT_EQ(got_buckets[i].upper, want_buckets[i].upper) << what << " #" << i;
    EXPECT_EQ(got_buckets[i].count, want_buckets[i].count) << what << " #" << i;
  }
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(got.quantile(q), want.quantile(q)) << what << " q=" << q;
  EXPECT_EQ(got.to_json(), want.to_json()) << what;
}

// Property: merging shards equals a single pass. The fixed layout makes the
// merge a sorted merge of occupied slots that adds counts at equal indices,
// so every bucket must match a dense reference and the whole read side
// (count/sum/max/buckets/quantiles/json) must be bit-identical, whatever the
// observation order, shard count or merge grouping.
TEST(LogLinearHistogram, MergeEqualsSinglePass) {
  // (value, weight) pairs over the whole uint64_t range: the unit buckets,
  // their edge with the first octave, every octave, and the saturated top
  // bucket, some observed with weight n > 1.
  struct Observation {
    uint64_t value;
    uint64_t n;
  };
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  std::vector<Observation> observations;
  for (uint64_t value : {uint64_t{0}, uint64_t{15}, uint64_t{16},
                         uint64_t{1} << 63, ~uint64_t{0}})
    observations.push_back({value, 1 + next() % 5});
  for (int i = 0; i < 3000; ++i) {
    const uint64_t draw = next();
    const uint64_t value = next() >> (draw >> 58);  // log-uniform octave
    observations.push_back({value, i % 3 ? 1 : 2 + (draw & 7)});
  }

  LogLinearHistogram single;
  std::vector<uint64_t> dense(LogLinearHistogram::kBucketCount, 0);
  for (const Observation& o : observations) {
    single.observe(o.value, o.n);
    dense[LogLinearHistogram::bucket_index(o.value)] += o.n;
  }
  ASSERT_EQ(dense_buckets(single), dense);
  const auto top = single.nonzero_buckets().back();
  EXPECT_EQ(top.lower,
            LogLinearHistogram::bucket_lower(LogLinearHistogram::kBucketCount - 1));
  EXPECT_EQ(top.upper, ~uint64_t{0});  // saturated, not wrapped

  // Descending order inserts every new slot at the front; interleaving the
  // two ends of the sorted run inserts into the middle from both sides.
  std::vector<Observation> descending = observations;
  std::sort(descending.begin(), descending.end(),
            [](const Observation& a, const Observation& b) {
              return a.value > b.value;
            });
  std::vector<Observation> interleaved;
  for (size_t lo = 0, hi = descending.size(); lo < hi;) {
    interleaved.push_back(descending[--hi]);
    if (lo < hi) interleaved.push_back(descending[lo++]);
  }

  for (const auto& [order_name, order] :
       {std::pair{"descending", &descending},
        std::pair{"interleaved", &interleaved}}) {
    for (size_t shard_count = 1; shard_count <= 8; ++shard_count) {
      std::vector<LogLinearHistogram> shards(shard_count);
      for (size_t i = 0; i < order->size(); ++i)
        shards[i % shard_count].observe((*order)[i].value, (*order)[i].n);
      // Left fold, right fold into an empty histogram, and a pairwise tree.
      LogLinearHistogram left = shards[0];
      for (size_t k = 1; k < shard_count; ++k) left.merge_from(shards[k]);
      LogLinearHistogram right;
      for (size_t k = shard_count; k-- > 0;) right.merge_from(shards[k]);
      std::vector<LogLinearHistogram> level = shards;
      while (level.size() > 1) {
        std::vector<LogLinearHistogram> up;
        for (size_t k = 0; k + 1 < level.size(); k += 2) {
          up.push_back(level[k + 1]);
          up.back().merge_from(level[k]);
        }
        if (level.size() % 2) up.push_back(level.back());
        level = std::move(up);
      }
      for (const auto& [grouping, merged] :
           {std::pair{"left", &left}, std::pair{"right", &right},
            std::pair{"tree", &level[0]}}) {
        const std::string what = std::string(order_name) + " " + grouping +
                                 " x" + std::to_string(shard_count);
        EXPECT_EQ(dense_buckets(*merged), dense) << what;
        expect_same_histogram(*merged, single, what);
      }
    }
  }

  // Merging a histogram into itself doubles every bucket in place, and the
  // rank-based quantiles do not move.
  LogLinearHistogram doubled = single;
  doubled.merge_from(doubled);
  std::vector<uint64_t> twice = dense;
  for (uint64_t& count : twice) count *= 2;
  EXPECT_EQ(dense_buckets(doubled), twice);
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(doubled.quantile(q), single.quantile(q)) << "q=" << q;
}

TEST(LogLinearHistogram, JsonShape) {
  LogLinearHistogram h;
  h.observe(100, 3);
  std::string json = h.to_json();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":300"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[["), std::string::npos) << json;
}

TEST(UniqueSourceSketch, EstimatesDistinctInsertsAndIgnoresDuplicates) {
  UniqueSourceSketch sketch;
  EXPECT_EQ(sketch.estimate(), 0u);
  for (uint64_t id = 0; id < 1000; ++id) sketch.insert(id);
  uint64_t bits_after_first_pass = sketch.bits_set();
  for (uint64_t id = 0; id < 1000; ++id) sketch.insert(id);  // duplicates
  EXPECT_EQ(sketch.bits_set(), bits_after_first_pass);
  // Linear counting over 4096 bits: ~2% error at this cardinality; 5% is a
  // comfortable deterministic bound (the hash is fixed, so this cannot flake).
  EXPECT_NEAR(static_cast<double>(sketch.estimate()), 1000.0, 50.0);
}

TEST(UniqueSourceSketch, MergeIsExactlyTheUnionBitmap) {
  UniqueSourceSketch single, evens, odds;
  for (uint64_t id = 0; id < 2000; ++id) {
    single.insert(id);
    (id % 2 ? odds : evens).insert(id);
  }
  evens.merge_from(odds);
  EXPECT_EQ(evens.bits_set(), single.bits_set());
  EXPECT_EQ(evens.estimate(), single.estimate());
}

Rssac002Sample base_sample(std::string_view instance, util::UnixTime when) {
  Rssac002Sample sample;
  sample.instance = instance;
  sample.when = when;
  sample.udp_queries = 1;
  sample.delivered = true;
  sample.query_bytes = 40;
  sample.response_bytes = 500;
  sample.source_id = 7;
  return sample;
}

TEST(Rssac002Collector, BucketsByInstanceAndUtcDay) {
  Rssac002Collector collector;
  EXPECT_TRUE(collector.empty());
  util::UnixTime morning = util::make_time(2023, 12, 15, 9, 0);
  util::UnixTime evening = util::make_time(2023, 12, 15, 22, 0);
  util::UnixTime next_day = util::make_time(2023, 12, 16, 0, 30);
  collector.record(base_sample("k1-lon", morning));
  collector.record(base_sample("k1-lon", evening));  // same instance-day
  collector.record(base_sample("k1-lon", next_day));
  collector.record(base_sample("b1-lax", morning));
  EXPECT_EQ(collector.record_count(), 3u);

  auto snapshot = collector.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Ordered by instance name then day.
  EXPECT_EQ(snapshot[0].first.first, "b1-lax");
  EXPECT_EQ(snapshot[1].first.first, "k1-lon");
  EXPECT_LT(snapshot[1].first.second, snapshot[2].first.second);
  EXPECT_EQ(snapshot[1].second.total_queries(), 2u);
}

TEST(Rssac002Collector, AccumulatesByProtoFamilyAndRcode) {
  Rssac002Collector collector;
  util::UnixTime when = util::make_time(2023, 12, 15, 12, 0);

  Rssac002Sample udp4 = base_sample("a1-ams", when);
  udp4.udp_queries = 3;  // retransmissions all reached the server
  udp4.source_id = 1;
  collector.record(udp4);

  Rssac002Sample tcp6 = base_sample("a1-ams", when);
  tcp6.v6 = true;
  tcp6.udp_queries = 1;
  tcp6.tcp_queries = 1;
  tcp6.final_tcp = true;
  tcp6.truncated = true;  // the UDP answer was TC=1
  tcp6.source_id = 2;
  collector.record(tcp6);

  Rssac002Sample refused = base_sample("a1-ams", when);
  refused.rcode = 5;
  refused.source_id = 3;
  collector.record(refused);

  auto snapshot = collector.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const auto& day = snapshot[0].second;
  EXPECT_EQ(day.queries[0][0], 4u);  // udp/v4: 3 + 1
  EXPECT_EQ(day.queries[0][1], 1u);  // udp/v6
  EXPECT_EQ(day.queries[1][1], 1u);  // tcp/v6
  EXPECT_EQ(day.queries[1][0], 0u);
  EXPECT_EQ(day.total_queries(), 6u);
  EXPECT_EQ(day.rcodes[0], 2u);
  EXPECT_EQ(day.rcodes[5], 1u);
  EXPECT_EQ(day.truncated, 1u);
  EXPECT_EQ(day.axfr_served, 0u);
  EXPECT_EQ(day.query_size.count(), 3u);
  EXPECT_EQ(day.udp_response_size.count(), 2u);
  EXPECT_EQ(day.tcp_response_size.count(), 1u);
  EXPECT_NEAR(static_cast<double>(day.sources[0].estimate()), 2.0, 1.0);
  EXPECT_NEAR(static_cast<double>(day.sources[1].estimate()), 1.0, 1.0);
}

TEST(Rssac002Collector, RcodesAboveTheSlotCountFoldIntoOverflow) {
  Rssac002Collector collector;
  Rssac002Sample weird = base_sample("c1-fra", util::make_time(2023, 12, 1));
  weird.rcode = 4095;  // far outside the reported set
  collector.record(weird);
  auto snapshot = collector.snapshot();
  EXPECT_EQ(snapshot[0].second.rcodes[Rssac002Collector::Day::kRcodeSlots], 1u);
  EXPECT_NE(collector.to_jsonl().find("\"other\":1"), std::string::npos);
}

// The exec-engine contract: shards folded with merge_from reproduce the
// serial export byte for byte, independent of how samples were split.
TEST(Rssac002Collector, ShardedMergeMatchesSerialExportByteForByte) {
  Rssac002Collector serial, shard_a, shard_b;
  uint64_t state = 42;
  const char* instances[] = {"a1-ams", "b1-lax", "k1-lon"};
  for (int i = 0; i < 300; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t r = state >> 33;
    Rssac002Sample sample;
    sample.instance = instances[r % 3];
    sample.when = util::make_time(2023, 12, 1 + static_cast<int>(r % 5), 8, 0);
    sample.v6 = (r >> 3) & 1;
    sample.udp_queries = 1 + static_cast<uint32_t>((r >> 4) % 3);
    sample.tcp_queries = (r >> 6) & 1;
    sample.delivered = (r >> 7) % 8 != 0;
    sample.final_tcp = sample.tcp_queries != 0;
    sample.rcode = static_cast<uint16_t>((r >> 10) % 6);
    sample.truncated = sample.tcp_queries != 0;
    sample.query_bytes = 30 + (r >> 12) % 40;
    sample.response_bytes = 100 + (r >> 13) % 60000;
    sample.source_id = (r >> 20) % 500;
    serial.record(sample);
    (i % 2 ? shard_a : shard_b).record(sample);
  }
  shard_a.merge_from(shard_b);
  EXPECT_EQ(shard_a.record_count(), serial.record_count());
  EXPECT_EQ(shard_a.to_jsonl(), serial.to_jsonl());
}

TEST(Rssac002Collector, JsonlUsesRssac002FieldNames) {
  Rssac002Collector collector;
  Rssac002Sample sample = base_sample("k1-lon", util::make_time(2023, 12, 10));
  sample.axfr = true;
  sample.tcp_queries = 1;
  sample.final_tcp = true;
  collector.record(sample);
  std::string jsonl = collector.to_jsonl();
  for (const char* field :
       {"\"instance\":\"k1-lon\"", "\"day\":\"2023-12-10\"",
        "\"dns-udp-queries-received-ipv4\":", "\"dns-tcp-queries-received-ipv6\":",
        "\"rcode-volume\":", "\"dns-responses-truncated\":", "\"axfr-served\":1",
        "\"query-size\":", "\"udp-response-size\":", "\"tcp-response-size\":",
        "\"num-sources-ipv4\":", "\"num-sources-ipv6\":"})
    EXPECT_NE(jsonl.find(field), std::string::npos) << field << "\n" << jsonl;
  EXPECT_EQ(jsonl.back(), '\n');
}

TEST(Rssac002Collector, ClearEmptiesTheCollector) {
  Rssac002Collector collector;
  collector.record(base_sample("a1", util::make_time(2023, 12, 1)));
  EXPECT_FALSE(collector.empty());
  collector.clear();
  EXPECT_TRUE(collector.empty());
  EXPECT_EQ(collector.to_jsonl(), "");
}

}  // namespace
}  // namespace rootsim::obs
