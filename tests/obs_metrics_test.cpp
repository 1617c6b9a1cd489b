#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"

namespace rootsim::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.hits");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name + labels resolves to the same series.
  EXPECT_EQ(&registry.counter("test.hits"), &c);
  EXPECT_EQ(registry.counter_total("test.hits"), 42u);
}

TEST(Counter, LabelOrderIsNormalized) {
  MetricsRegistry registry;
  Counter& a = registry.counter("q", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("q", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b) << "label order must not create a second series";
  a.inc(3);
  EXPECT_EQ(registry.counter_value("q", {{"b", "2"}, {"a", "1"}}), 3u);
}

TEST(Counter, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry registry;
  registry.counter("q", {{"rcode", "NOERROR"}}).inc(5);
  registry.counter("q", {{"rcode", "REFUSED"}}).inc(2);
  EXPECT_EQ(registry.counter_total("q"), 7u);
  EXPECT_EQ(registry.counter_value("q", {{"rcode", "REFUSED"}}), 2u);
  EXPECT_EQ(registry.counter_value("q", {{"rcode", "SERVFAIL"}}), 0u);
}

TEST(Gauge, SetAddAndSetMax) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("zone.serial");
  g.set(2023121200);
  g.set_max(2023111200);  // lower: ignored
  EXPECT_EQ(g.value(), 2023121200);
  g.set_max(2023121201);
  EXPECT_EQ(g.value(), 2023121201);
  Gauge& h = registry.gauge("wall");
  h.add(1.5);
  h.add(2.5);
  EXPECT_DOUBLE_EQ(h.value(), 4.0);
}

TEST(Histogram, BucketsObservationsAtBoundaries) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("rtt_us");
  // Log-linear buckets: exact below 32, then 16 per octave. A bucket's lower
  // bound is inclusive and its upper bound exclusive: 32 and 33 share
  // [32, 34), 34 opens [34, 36).
  h.observe(3);
  h.observe(31);
  h.observe(32);
  h.observe(33);
  h.observe(34);
  const LogLinearHistogram snapshot = h.snapshot();
  const auto buckets = snapshot.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].lower, 3u);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].lower, 31u);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].lower, 32u);
  EXPECT_EQ(buckets[2].upper, 34u);
  EXPECT_EQ(buckets[2].count, 2u);
  EXPECT_EQ(buckets[3].lower, 34u);
  EXPECT_EQ(buckets[3].count, 1u);
  EXPECT_EQ(snapshot.count(), 5u);
  EXPECT_EQ(snapshot.sum(), 3u + 31u + 32u + 33u + 34u);
  EXPECT_EQ(snapshot.max(), 34u);
  // Same name + labels resolves to the same series.
  EXPECT_EQ(&registry.histogram("rtt_us"), &h);
}

TEST(Registry, SnapshotIsDeterministicallyOrdered) {
  // Registration order must not leak into iteration order.
  MetricsRegistry first, second;
  first.counter("b.metric").inc(1);
  first.counter("a.metric", {{"k", "2"}}).inc(2);
  first.counter("a.metric", {{"k", "1"}}).inc(3);
  second.counter("a.metric", {{"k", "1"}}).inc(3);
  second.counter("b.metric").inc(1);
  second.counter("a.metric", {{"k", "2"}}).inc(2);
  EXPECT_EQ(first.to_text(), second.to_text());
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
  auto samples = first.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.metric");
  EXPECT_EQ(samples[0].labels, LabelSet({{"k", "1"}}));
  EXPECT_EQ(samples[2].name, "b.metric");
}

TEST(Registry, TextExportFormat) {
  MetricsRegistry registry;
  registry.counter("prober.queries", {{"rcode", "NOERROR"}}).inc(12);
  registry.histogram("rtt_us").observe(15);
  registry.histogram("rtt_us").observe(40);
  std::string text = registry.to_text();
  EXPECT_NE(text.find("prober.queries{rcode=NOERROR} 12\n"), std::string::npos)
      << text;
  // p50 sits at rank 1 of 2: the start of 40's bucket [40, 42).
  EXPECT_NE(text.find("rtt_us count=2 sum=55 max=40 p50=40.0 p90=41.6 "
                      "p99=42.0 p999=42.0\n"),
            std::string::npos)
      << text;
}

TEST(Registry, JsonlExportFormat) {
  MetricsRegistry registry;
  registry.counter("c", {{"k", "v"}}).inc(7);
  registry.histogram("h", {{"family", "v4"}}).observe(15);
  // A histogram line carries LogLinearHistogram::to_json()'s fields.
  EXPECT_EQ(registry.to_jsonl(),
            "{\"metric\":\"c\",\"labels\":{\"k\":\"v\"},\"type\":\"counter\","
            "\"value\":7}\n"
            "{\"metric\":\"h\",\"labels\":{\"family\":\"v4\"},"
            "\"type\":\"histogram\",\"count\":1,\"sum\":15,\"max\":15,"
            "\"p50\":15.5,\"p90\":15.9,\"p99\":16.0,\"p999\":16.0,"
            "\"buckets\":[[15,16,1]]}\n");
}

TEST(Registry, VolatileMetricsExcludedByDefault) {
  MetricsRegistry registry;
  registry.gauge("campaign.phase_wall_ms", {{"phase", "audit"}},
                 /*volatile_metric=*/true)
      .set(123.4);
  registry.counter("stable").inc(1);
  EXPECT_EQ(registry.snapshot().size(), 1u);
  EXPECT_EQ(registry.to_text().find("phase_wall"), std::string::npos);
  EXPECT_EQ(registry.snapshot(/*include_volatile=*/true).size(), 2u);
}

TEST(Registry, ConcurrentIncrementsDoNotLose) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hot");
  Histogram& h = registry.histogram("hist");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        // Each thread its own value, so concurrent inserts open new slots.
        h.observe(static_cast<uint64_t>(1000 * t + i % 7));
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  const LogLinearHistogram snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t sum = 0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) sum += 1000 * t + i % 7;
  EXPECT_EQ(snapshot.sum(), sum);
}

// Shard merge is exact: because every series shares LogLinearHistogram's
// fixed layout, merge(a, b) has a single pass's buckets, count, sum and max,
// so its quantiles are byte for byte the single-pass quantiles.
TEST(Histogram, MergeEqualsSinglePass) {
  MetricsRegistry single_reg, a_reg, b_reg;
  Histogram& single = single_reg.histogram("h");
  Histogram& a = a_reg.histogram("h");
  Histogram& b = b_reg.histogram("h");
  uint64_t state = 7;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t value = (state >> 33) % 250000;
    single.observe(value);
    (i % 3 ? a : b).observe(value);
  }
  a.merge_from(b);
  const LogLinearHistogram merged = a.snapshot();
  const LogLinearHistogram want = single.snapshot();
  ASSERT_EQ(merged.count(), want.count());
  EXPECT_EQ(merged.sum(), want.sum());
  EXPECT_EQ(merged.max(), want.max());
  EXPECT_EQ(merged.to_json(), want.to_json());
  for (double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(merged.quantile(q), want.quantile(q)) << "q=" << q;
  // The registry fold gives the same series, and a series merged into
  // itself doubles without deadlocking (its copy is taken before the lock).
  MetricsRegistry folded;
  folded.merge_from(a_reg);
  EXPECT_EQ(folded.to_jsonl(), single_reg.to_jsonl());
  const uint64_t b_count = b.snapshot().count();
  b.merge_from(b);
  EXPECT_EQ(b.snapshot().count(), 2 * b_count);
}

TEST(Histogram, SnapshotSampleCarriesTheHistogram) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("rtt_us");
  for (uint64_t v = 12000; v < 17000; v += 100) h.observe(v);
  auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::Histogram);
  EXPECT_EQ(samples[0].histogram.to_json(), h.snapshot().to_json());
  EXPECT_DOUBLE_EQ(samples[0].histogram.quantile(0.5),
                   h.snapshot().quantile(0.5));
}

TEST(NullSink, HelpersAreNoOps) {
  Obs null_sink;
  EXPECT_FALSE(null_sink.enabled());
  null_sink.count("anything");  // must not crash
  EXPECT_EQ(null_sink.counter_handle("x"), nullptr);
  EXPECT_EQ(null_sink.histogram_handle("x"), nullptr);
  inc(nullptr);
  RunReport report = RunReport::capture(null_sink);
  EXPECT_TRUE(report.metrics.empty());
  EXPECT_EQ(report.one_line(), "obs: (no samples recorded)");
}

TEST(RunReport, OneLineAndCounterLookups) {
  Recorder recorder;
  Obs obs = recorder.obs();
  obs.count("prober.probes", 2);
  obs.count("prober.queries", {{"rcode", "NOERROR"}}, 90);
  obs.count("prober.queries", {{"rcode", "TIMEOUT"}}, 4);
  RunReport report = RunReport::capture(recorder);
  EXPECT_EQ(report.counter_total("prober.queries"), 94u);
  EXPECT_EQ(report.counter_value("prober.queries", {{"rcode", "TIMEOUT"}}), 4u);
  std::string line = report.one_line();
  EXPECT_NE(line.find("probes=2"), std::string::npos) << line;
  EXPECT_NE(line.find("queries=94"), std::string::npos) << line;
}

}  // namespace
}  // namespace rootsim::obs
