// Unit suite for the streaming SLO plane: SloCollector window semantics
// (advancement, empty-bucket eviction, trailing aggregation, merge order
// independence, chunked drains equal to one full sweep) and the
// IncidentTracker hysteresis state machine (no flapping at the threshold
// boundary, open -> close lifecycle against a scripted outage,
// deterministic attribution).
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/incident.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timeutil.h"

namespace rootsim::obs {
namespace {

constexpr int64_t kBucket = SloCollector::kBucketSeconds;

// Thresholds tuned so one probe decides a window: every test below controls
// breaches explicitly instead of fighting min_probes.
SloThresholds tiny_thresholds() {
  SloThresholds t;
  t.min_probes = 1;
  t.window_buckets = 2;
  t.open_after = 3;
  t.close_after = 2;
  return t;
}

SloSample probe(util::UnixTime when, bool ok, uint8_t root = 0,
                bool v6 = false) {
  SloSample sample;
  sample.root = root;
  sample.v6 = v6;
  sample.when = when;
  sample.kind = SloSample::Kind::Availability;
  sample.ok = ok;
  return sample;
}

TEST(SloCollector, BucketIndexIsFloorDivision) {
  EXPECT_EQ(SloCollector::bucket_index(0), 0);
  EXPECT_EQ(SloCollector::bucket_index(kBucket - 1), 0);
  EXPECT_EQ(SloCollector::bucket_index(kBucket), 1);
  EXPECT_EQ(SloCollector::bucket_index(-1), -1);
  EXPECT_EQ(SloCollector::bucket_start(SloCollector::bucket_index(12345)), 0);
}

TEST(SloCollector, WindowsAdvancePerBucketIncludingEmptyOnes) {
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  // Samples in bucket 0 and bucket 3; buckets 1-2 are silent.
  collector.record(probe(t0, true));
  collector.record(probe(t0 + 3 * kBucket, true));

  auto windows = collector.windows(tiny_thresholds());
  // One window per bucket in the stream's [first, last] range: the silent
  // buckets still advance the sweep instead of being skipped. Each window
  // spans the trailing window_buckets buckets and slides by one bucket.
  ASSERT_EQ(windows.size(), 4u);
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].end - windows[i].start, 2 * kBucket) << i;
    if (i) {
      EXPECT_EQ(windows[i].start, windows[i - 1].start + kBucket) << i;
    }
  }
  EXPECT_EQ(windows[0].end, t0 + kBucket);  // trailing: ends at its bucket
  // window_buckets = 2: bucket 1's window still sees bucket 0's probe,
  // bucket 2's window has aged it out (eviction), bucket 3 is fresh again.
  EXPECT_EQ(windows[0].probes, 1u);
  EXPECT_EQ(windows[1].probes, 1u);
  EXPECT_EQ(windows[2].probes, 0u);
  EXPECT_FALSE(windows[2].evaluated);
  EXPECT_EQ(windows[3].probes, 1u);
}

TEST(SloCollector, TrailingWindowAggregatesAndEvaluates) {
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  collector.record(probe(t0, false));
  collector.record(probe(t0 + kBucket, true));
  SloSample latency = probe(t0 + kBucket, true);
  latency.kind = SloSample::Kind::Latency;
  latency.value = 120.0;
  collector.record(latency);

  SloThresholds thresholds = tiny_thresholds();
  auto windows = collector.windows(thresholds);
  ASSERT_EQ(windows.size(), 2u);
  // Second window spans both buckets: 1 failure + 1 success.
  EXPECT_EQ(windows[1].probes, 2u);
  EXPECT_EQ(windows[1].answered, 1u);
  EXPECT_DOUBLE_EQ(windows[1].availability, 0.5);
  EXPECT_TRUE(windows[1].evaluated);
  EXPECT_TRUE(windows[1].breached(SloMetric::Availability));
  EXPECT_EQ(windows[1].latency_count, 1u);
  EXPECT_NEAR(windows[1].rtt_p95_ms, 120.0, 120.0 * 0.05);
}

TEST(SloCollector, StarvedWindowsAreNotEvaluated) {
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  collector.record(probe(t0, false));  // would breach if evaluated

  SloThresholds thresholds = tiny_thresholds();
  thresholds.min_probes = 16;
  auto windows = collector.windows(thresholds);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_FALSE(windows[0].evaluated);
  EXPECT_EQ(windows[0].breaches, 0u);
}

TEST(SloCollector, MergeOrderAndShardingInvisibleInExport) {
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  auto feed = [&](SloCollector& c, int salt) {
    for (int i = 0; i < 40; ++i) {
      const util::UnixTime when = t0 + (i % 5) * kBucket + i * 17;
      c.record(probe(when, (i + salt) % 7 != 0, i % 3 == 0 ? 1 : 0,
                     i % 2 == 1));
      SloSample latency = probe(when, true, i % 3 == 0 ? 1 : 0, i % 2 == 1);
      latency.kind = SloSample::Kind::Latency;
      latency.value = 10.0 + i;
      c.record(latency);
    }
  };
  SloCollector serial;
  feed(serial, 0);
  feed(serial, 1);

  // Same samples split across two shards, merged in both orders — and
  // recorded from two threads, so TSan sees the lock on the hot path.
  for (bool reversed : {false, true}) {
    SloCollector a, b, merged;
    std::thread ta([&] { feed(a, 0); });
    std::thread tb([&] { feed(b, 1); });
    ta.join();
    tb.join();
    merged.merge_from(reversed ? b : a);
    merged.merge_from(reversed ? a : b);
    EXPECT_EQ(merged.cell_count(), serial.cell_count());
    EXPECT_EQ(SloCollector::windows_to_jsonl(merged.windows(tiny_thresholds())),
              SloCollector::windows_to_jsonl(serial.windows(tiny_thresholds())));
  }
}

// A printf slo.jsonl writer, one util::format per group of fields: the
// reference windows_to_jsonl must match byte for byte.
std::string printf_jsonl(std::span<const SloWindow> windows) {
  std::string out;
  for (const SloWindow& w : windows) {
    out += util::format("{\"letter\":\"%c\",\"family\":\"%s\"",
                        'a' + w.root, w.v6 ? "v6" : "v4");
    out += ",\"start\":\"" + util::format_datetime(w.start) + "\"";
    out += ",\"end\":\"" + util::format_datetime(w.end) + "\"";
    out += util::format(
        ",\"probes\":%llu,\"answered\":%llu,\"availability\":%.6f",
        static_cast<unsigned long long>(w.probes),
        static_cast<unsigned long long>(w.answered), w.availability);
    out += util::format(
        ",\"rtt_p50_ms\":%.3f,\"rtt_p95_ms\":%.3f", w.rtt_p50_ms, w.rtt_p95_ms);
    out += util::format(
        ",\"publication_count\":%llu,\"publication_p95_s\":%.0f",
        static_cast<unsigned long long>(w.publication_count),
        w.publication_p95_s);
    out += util::format(
        ",\"staleness_count\":%llu,\"staleness_max_s\":%.0f",
        static_cast<unsigned long long>(w.staleness_count),
        w.staleness_max_s);
    out += util::format(
        ",\"integrity_checks\":%llu,\"integrity_ok\":%llu",
        static_cast<unsigned long long>(w.integrity_checks),
        static_cast<unsigned long long>(w.integrity_ok));
    out += util::format(",\"evaluated\":%s", w.evaluated ? "true" : "false");
    out += ",\"breaches\":[";
    bool first = true;
    for (size_t m = 0; m < kSloMetricCount; ++m) {
      if (!(w.breaches & (1u << m))) continue;
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += to_string(static_cast<SloMetric>(m));
      out += "\"";
    }
    out += "]}\n";
  }
  return out;
}

TEST(SloCollector, JsonlMatchesThePrintfWriter) {
  const uint64_t kMaxCount = std::numeric_limits<uint64_t>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kMax = std::numeric_limits<double>::max();
  // Edge values: printf rounds exact binary ties to even, and the sixth
  // decimal of 0.0000005 and its neighbours rounds either way.
  const std::vector<double> doubles = {
      0.0, -0.0, 1.0, 0.5, 2.5, 0.0625, 1.5, 0.0000005, 0.9999995,
      0.1234565, 0.9999994999, 0.5000005, 999.9995, 1e300, -1e300, kMax,
      -kMax, kInf, -kInf, kNan, -kNan, 1e-300, 123456789.123456789};
  const std::vector<uint64_t> counts = {0, 1, 9, 10, 4294967296ull, kMaxCount};
  const std::vector<util::UnixTime> times = {
      0,
      -1,                                            // 1969-12-31T23:59:59Z
      util::make_time(2024, 2, 29, 12, 34, 56),      // leap day
      util::make_time(2000, 2, 29),
      util::make_time(1999, 12, 31, 23, 59, 59),     // year ends
      util::make_time(2023, 12, 31, 23, 59, 59),
      util::make_time(2024, 1, 1),
      util::make_time(0, 1, 1),                      // first and last
      util::make_time(9999, 12, 31, 23, 59, 59),     // digit-writer years
      util::make_time(0, 1, 1) - 1,                  // fallback below 0000
      util::make_time(-12345, 6, 7, 8, 9, 10),
      util::make_time(10000, 1, 1),                  // fallback above 9999
      util::make_time(123456, 3, 4, 5, 6, 7),
  };

  std::vector<SloWindow> windows;
  for (size_t i = 0; i < doubles.size(); ++i) {
    SloWindow w;
    w.root = static_cast<uint8_t>(i % kSloRoots);
    w.v6 = i % 2 == 1;
    w.availability = doubles[i];
    w.rtt_p50_ms = doubles[i];
    w.rtt_p95_ms = doubles[(i + 1) % doubles.size()];
    w.publication_p95_s = doubles[i];
    w.staleness_max_s = doubles[(i + 2) % doubles.size()];
    w.start = times[i % times.size()];
    w.end = times[(i + 5) % times.size()];
    w.probes = counts[i % counts.size()];
    w.answered = counts[(i + 1) % counts.size()];
    w.latency_count = counts[(i + 2) % counts.size()];
    w.publication_count = counts[(i + 3) % counts.size()];
    w.staleness_count = counts[(i + 4) % counts.size()];
    w.integrity_checks = counts[(i + 5) % counts.size()];
    w.integrity_ok = counts[i % counts.size()];
    w.breaches = static_cast<uint32_t>(i % 32);
    w.evaluated = i % 3 != 0;
    windows.push_back(w);
  }
  for (const util::UnixTime t : times) {
    SloWindow w;
    w.start = t;
    w.end = t;
    windows.push_back(w);
  }
  // Random windows: counts over the whole uint64_t range, doubles spread
  // over many octaves and quantized to a few decimals (where ties live).
  util::Rng rng(1729);
  for (int i = 0; i < 20000; ++i) {
    SloWindow w;
    w.root = static_cast<uint8_t>(rng.uniform(kSloRoots));
    w.v6 = rng.uniform(2) == 1;
    w.start = static_cast<util::UnixTime>(rng.uniform(4'000'000'000ull)) -
              1'000'000'000;
    w.end = w.start + static_cast<int64_t>(rng.uniform(100'000));
    const auto count = [&] {
      return rng.uniform(2) ? rng.next() : rng.uniform(100000);
    };
    const auto value = [&] {
      const double v = std::ldexp(rng.uniform01(),
                                  static_cast<int>(rng.uniform(80)) - 30);
      const double scale = std::pow(10.0, static_cast<double>(rng.uniform(8)));
      return rng.uniform(2) ? v : std::round(v * scale) / scale;
    };
    w.probes = count();
    w.answered = count();
    w.availability = rng.uniform(2) ? rng.uniform01() : value();
    w.latency_count = count();
    w.rtt_p50_ms = value();
    w.rtt_p95_ms = value();
    w.publication_count = count();
    w.publication_p95_s = value();
    w.staleness_count = count();
    w.staleness_max_s = value();
    w.integrity_checks = count();
    w.integrity_ok = count();
    w.breaches = static_cast<uint32_t>(rng.uniform(32));
    w.evaluated = rng.uniform(2) == 1;
    windows.push_back(w);
  }
  const std::string got = SloCollector::windows_to_jsonl(windows);
  const std::string want = printf_jsonl(windows);
  ASSERT_EQ(got.size(), want.size());
  // Line by line, so a mismatch names its window.
  size_t at = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const size_t eol = want.find('\n', at);
    ASSERT_EQ(got.substr(at, eol + 1 - at), want.substr(at, eol + 1 - at))
        << "window " << i;
    at = eol + 1;
  }
  EXPECT_EQ(got, want);
}

// The body of a JSON string (the text between its quotes), decoded; an
// unescaped quote, a raw control character or a bad escape fails the test.
std::string json_unescape(std::string_view body) {
  std::string out;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    EXPECT_NE(c, '"') << "unescaped quote at " << i;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "control char at " << i;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == body.size()) {
      ADD_FAILURE() << "dangling backslash";
      break;
    }
    switch (body[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = 0;
        const bool ok = i + 4 < body.size() &&
                        std::sscanf(std::string(body.substr(i + 1, 4)).c_str(),
                                    "%4x", &code) == 1;
        EXPECT_TRUE(ok && code < 0x80) << "escape at " << i;
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default:
        ADD_FAILURE() << "bad escape \\" << body[i] << " at " << i;
    }
  }
  return out;
}

// The scenario header is JSON whatever the name holds: the name comes back
// out of it unchanged.
TEST(SloCollector, ScenarioHeaderEscapesTheName) {
  const std::string name = "quote\" back\\slash \x01 tab\t";
  for (const std::string& jsonl :
       {SloCollector::windows_to_jsonl({}, name),
        IncidentTracker::incidents_to_jsonl({}, name)}) {
    const std::string prefix = "{\"scenario\":\"";
    ASSERT_EQ(jsonl.substr(0, prefix.size()), prefix) << jsonl;
    ASSERT_EQ(jsonl.substr(jsonl.size() - 3), "\"}\n") << jsonl;
    EXPECT_EQ(json_unescape(
                  jsonl.substr(prefix.size(), jsonl.size() - prefix.size() - 3)),
              name)
        << jsonl;
  }
}

// Samples of every kind in buckets [first_bucket, first_bucket + 4) of
// letters a and b, both families.
std::vector<SloSample> bucket_samples(int first_bucket, int salt) {
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  std::vector<SloSample> samples;
  for (int i = 0; i < 30; ++i) {
    const util::UnixTime when = t0 + (first_bucket + i % 4) * kBucket + i * 13;
    const uint8_t root = i % 3 == 0 ? 1 : 0;
    const bool v6 = i % 2 == 1;
    samples.push_back(probe(when, (i + salt) % 5 != 0, root, v6));
    SloSample sample = probe(when, true, root, v6);
    sample.kind = SloSample::Kind::Latency;
    sample.value = 5.0 + i + salt;
    samples.push_back(sample);
    sample.kind = SloSample::Kind::Staleness;
    sample.value = 60.0 * (i + salt);
    samples.push_back(sample);
    sample.kind = SloSample::Kind::Publication;
    sample.value = 300.0 + 7 * i;
    samples.push_back(sample);
    sample.kind = SloSample::Kind::Integrity;
    sample.ok = (i + salt) % 4 != 0;
    samples.push_back(sample);
  }
  return samples;
}

TEST(SloCollector, ChunkedDrainsJoinToTheFullSweep) {
  // 16 buckets. Letters a and b in both families, with a gap of silent
  // buckets (4-8) and nothing after bucket 12; letter m on v6 in bucket 8
  // only; letter d on v4 in every bucket; letter e on v6 in the first and
  // last bucket only; letter f on v4 in buckets 3-5 only. Every other
  // stream is empty. Chunks of every size put each gap on a chunk edge.
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  const int64_t first_bucket = SloCollector::bucket_index(t0);
  constexpr int64_t kBuckets = 16;
  std::vector<SloSample> samples = bucket_samples(0, 0);
  for (const SloSample& sample : bucket_samples(9, 1)) samples.push_back(sample);
  samples.push_back(probe(util::make_time(2023, 7, 5), false, 12, true));
  for (int64_t b = 0; b < kBuckets; ++b)
    samples.push_back(probe(t0 + b * kBucket + b, b % 5 != 3, 3));
  samples.push_back(probe(t0, true, 4, true));
  samples.push_back(probe(t0 + (kBuckets - 1) * kBucket, false, 4, true));
  for (int64_t b = 3; b <= 5; ++b) {
    SloSample sample = probe(t0 + b * kBucket, true, 5);
    samples.push_back(sample);
    sample.kind = SloSample::Kind::Latency;
    sample.value = 40.0 + static_cast<double>(b);
    samples.push_back(sample);
  }
  SloCollector full;
  for (const SloSample& sample : samples) full.record(sample);

  const auto stream_of = [](uint8_t root, bool v6) {
    return static_cast<size_t>(root) * 2 + (v6 ? 1 : 0);
  };
  constexpr size_t kStreams = kSloRoots * 2;
  // Each stream's cells of every bucket, folded: what its drain totals count.
  std::array<SloCollector::Cell, kStreams> full_totals;
  for (const auto& [key, cell] : full.snapshot())
    full_totals[stream_of(std::get<0>(key), std::get<1>(key) == 1)].merge_from(
        cell);

  for (size_t window = 1; window <= 8; ++window) {
    SloThresholds thresholds = tiny_thresholds();
    thresholds.window_buckets = window;
    const std::vector<SloWindow> want = full.windows(thresholds);
    const std::string want_jsonl = SloCollector::windows_to_jsonl(want);
    for (int64_t chunk = 1; chunk <= kBuckets; ++chunk) {
      SCOPED_TRACE(::testing::Message()
                   << "window " << window << ", chunk " << chunk);
      SloCollector::Drain drain(thresholds, first_bucket, kBuckets);
      // One slot array, [stream][bucket - chunk start], cleared and refilled
      // for every chunk as run_slo_timeline reuses it.
      const auto width = static_cast<size_t>(chunk);
      std::vector<SloCollector::Cell> slots(kStreams * width);
      for (int64_t lo = 0; lo < kBuckets; lo += chunk) {
        const auto count = static_cast<size_t>(std::min(chunk, kBuckets - lo));
        for (SloCollector::Cell& cell : slots) cell.clear();
        std::vector<SloCollector::Cell> fresh(slots.size());
        for (const SloSample& sample : samples) {
          const int64_t b = SloCollector::bucket_index(sample.when) - first_bucket;
          if (b < lo || b >= lo + chunk) continue;
          const size_t slot = stream_of(sample.root, sample.v6) * width +
                              static_cast<size_t>(b - lo);
          slots[slot].record(sample);
          fresh[slot].record(sample);
        }
        // A cleared slot refills to exactly a fresh cell: no count, sum or
        // max of the chunk before survives.
        for (size_t slot = 0; slot < slots.size(); ++slot) {
          EXPECT_EQ(slots[slot].probes, fresh[slot].probes) << slot;
          EXPECT_EQ(slots[slot].answered, fresh[slot].answered) << slot;
          EXPECT_EQ(slots[slot].rtt_us.to_json(), fresh[slot].rtt_us.to_json())
              << slot;
          EXPECT_EQ(slots[slot].publication_s.to_json(),
                    fresh[slot].publication_s.to_json())
              << slot;
          EXPECT_EQ(slots[slot].staleness_s.to_json(),
                    fresh[slot].staleness_s.to_json())
              << slot;
          EXPECT_EQ(slots[slot].integrity_checks, fresh[slot].integrity_checks)
              << slot;
          EXPECT_EQ(slots[slot].integrity_ok, fresh[slot].integrity_ok) << slot;
        }
        // Four threads add the 26 streams' runs concurrently.
        std::vector<std::thread> threads;
        for (size_t t = 0; t < 4; ++t)
          threads.emplace_back([&, t] {
            for (size_t s = t; s < kStreams; s += 4)
              drain.add(static_cast<uint8_t>(s / 2), s % 2 == 1,
                        first_bucket + lo,
                        std::span(slots).subspan(s * width, count));
          });
        for (std::thread& thread : threads) thread.join();
        // Only the cells a later window reads are carried.
        for (size_t s = 0; s < kStreams; ++s)
          EXPECT_LE(drain.carried(static_cast<uint8_t>(s / 2), s % 2 == 1),
                    window - 1)
              << "stream " << s << " after bucket " << lo + chunk - 1;
      }
      const std::vector<SloWindow> windows = drain.take_windows();
      EXPECT_EQ(windows.size(), want.size());
      EXPECT_EQ(SloCollector::windows_to_jsonl(windows), want_jsonl);

      std::array<size_t, kStreams> per_stream{};
      for (const SloWindow& w : windows) ++per_stream[stream_of(w.root, w.v6)];
      EXPECT_EQ(per_stream[stream_of(0, false)], 12u);  // buckets 0..11, gap included
      EXPECT_EQ(per_stream[stream_of(12, true)], 1u);
      EXPECT_EQ(per_stream[stream_of(2, false)], 0u);
      EXPECT_EQ(per_stream[stream_of(4, true)], static_cast<size_t>(kBuckets));
      EXPECT_EQ(per_stream[stream_of(5, false)], 3u);   // none after bucket 5
      EXPECT_EQ(drain.totals(2, false).probes, 0u);
      for (uint8_t root = 0; root < kSloRoots; ++root) {
        for (const bool v6 : {false, true}) {
          const SloCollector::Drain::Totals& got = drain.totals(root, v6);
          const size_t s = stream_of(root, v6);
          const SloCollector::Cell& want_totals = full_totals[s];
          EXPECT_EQ(got.probes, want_totals.probes) << s;
          EXPECT_EQ(got.answered, want_totals.answered) << s;
          EXPECT_EQ(got.latency_count, want_totals.rtt_us.count()) << s;
          EXPECT_EQ(got.publication_count, want_totals.publication_s.count())
              << s;
          EXPECT_EQ(got.staleness_count, want_totals.staleness_s.count()) << s;
          EXPECT_EQ(got.integrity_checks, want_totals.integrity_checks) << s;
          EXPECT_EQ(got.integrity_ok, want_totals.integrity_ok) << s;
        }
      }
    }
  }
}

// The drain writes each window into a slot picked by its bucket, so a run
// that does not lie inside the timeline, or that starts before its stream's
// previous run ends, stops the process in every build type instead of
// writing past the windows.
TEST(SloCollectorDeathTest, DrainRunOutsideTheTimelineStops) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  constexpr int64_t kFirst = 100;
  constexpr size_t kBuckets = 20;
  // Eight buckets, only the last one with a sample.
  std::vector<SloCollector::Cell> cells(8);
  cells.back().record(probe(0, true));
  const auto drain_runs = [&](uint8_t root,
                              std::initializer_list<int64_t> starts) {
    SloCollector::Drain drain(tiny_thresholds(), kFirst, kBuckets);
    for (const int64_t start : starts) drain.add(root, false, start, cells);
    return drain.take_windows().size();
  };
  const char* message = "outside the timeline \\[100, 120\\)";
  EXPECT_DEATH(drain_runs(0, {kFirst + 13}), message);    // one bucket past
  EXPECT_DEATH(drain_runs(0, {kFirst + 21}), message);    // wholly past
  EXPECT_DEATH(drain_runs(0, {kFirst - 1}), message);     // one bucket before
  EXPECT_DEATH(drain_runs(0, {kFirst, kFirst + 4}), message);  // overlapping
  EXPECT_DEATH(drain_runs(kSloRoots, {kFirst}), message);  // no such letter
  // A run that ends at the timeline's end lies inside it, and so do runs
  // with a gap between them: windows of buckets 107..119.
  EXPECT_EQ(drain_runs(0, {kFirst + 12}), 1u);
  EXPECT_EQ(drain_runs(0, {kFirst, kFirst + 12}), 13u);
}

// One bad bucket smears across window_buckets sliding windows; open_after
// must out-wait the smear or a single blip pages. The default policy
// guarantees that structurally (open_after > window_buckets).
TEST(IncidentTracker, SingleBucketBlipDoesNotOpen) {
  SloThresholds thresholds;  // default policy: window 4, open_after 6
  thresholds.min_probes = 1;
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  for (int i = 0; i < 12; ++i)
    collector.record(probe(t0 + i * kBucket, i != 5));  // one dead bucket

  IncidentTracker tracker(thresholds);
  tracker.observe(collector.windows(thresholds));
  EXPECT_EQ(tracker.open_count(), 0u);
  EXPECT_TRUE(tracker.incidents().empty());
}

// A stream sitting exactly on the availability threshold is healthy — the
// breach comparison is strict — so boundary oscillation cannot flap.
TEST(IncidentTracker, NoFlappingAtTheThresholdBoundary) {
  SloThresholds thresholds = tiny_thresholds();
  thresholds.availability_min = 0.5;
  thresholds.window_buckets = 1;  // one bucket per window: direct control
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  for (int i = 0; i < 20; ++i) {
    // Every bucket: exactly 1 of 2 probes answered = availability 0.5,
    // exactly at the threshold.
    collector.record(probe(t0 + i * kBucket, true));
    collector.record(probe(t0 + i * kBucket + 1, false));
  }
  IncidentTracker tracker(thresholds);
  tracker.observe(collector.windows(thresholds));
  EXPECT_EQ(tracker.open_count(), 0u);
  EXPECT_TRUE(tracker.incidents().empty());
}

// The lifecycle property: a sustained scripted outage opens exactly one
// incident after `open_after` breached windows, records its breadth and
// worst value, and closes after `close_after` healthy windows.
TEST(IncidentTracker, OpensAndClosesAcrossAScriptedOutage) {
  SloThresholds thresholds = tiny_thresholds();
  thresholds.window_buckets = 1;
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 11, 27);
  // Buckets 0-4 healthy, 5-12 dark (the outage), 13-19 healthy again.
  for (int i = 0; i < 20; ++i) {
    const bool dark = i >= 5 && i <= 12;
    for (int p = 0; p < 4; ++p)
      collector.record(probe(t0 + i * kBucket + p, !dark));
  }
  IncidentTracker tracker(thresholds);
  tracker.observe(collector.windows(thresholds));
  auto incidents = tracker.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const Incident& incident = incidents[0];
  EXPECT_EQ(incident.id, 1u);
  EXPECT_EQ(incident.metric, SloMetric::Availability);
  // Opened retroactively at the *first* breached window, not the one that
  // crossed open_after.
  EXPECT_EQ(incident.opened, t0 + 5 * kBucket);
  EXPECT_EQ(incident.last_breach_end, t0 + 13 * kBucket);
  EXPECT_EQ(incident.breach_windows, 8u);
  EXPECT_DOUBLE_EQ(incident.worst_value, 0.0);
  // Closed at the end of the close_after-th healthy window.
  EXPECT_FALSE(incident.open());
  EXPECT_EQ(incident.closed, t0 + 15 * kBucket);
  EXPECT_EQ(tracker.open_count(), 0u);

  // Attribution: the scripted outage window wins; an unrelated hint with
  // no overlap cannot, and absent any overlap the cause stays "unknown".
  tracker.add_hint({t0 + 5 * kBucket, t0 + 13 * kBucket, -1, -1, -1,
                    "scripted-outage", 2.0});
  tracker.add_hint({t0 - 50 * kBucket, t0 - 40 * kBucket, -1, -1, -1,
                    "ancient-history", 9.0});
  auto attributed = tracker.incidents();
  ASSERT_EQ(attributed.size(), 1u);
  EXPECT_EQ(attributed[0].cause, "scripted-outage");
  EXPECT_DOUBLE_EQ(attributed[0].cause_score, 2.0 * 8 * kBucket);
}

TEST(IncidentTracker, HintFiltersRespectStreamAndMetric) {
  SloThresholds thresholds = tiny_thresholds();
  thresholds.window_buckets = 1;
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 9, 13);
  for (int i = 0; i < 10; ++i) {
    SloSample integrity = probe(t0 + i * kBucket, false, /*root=*/3);
    integrity.kind = SloSample::Kind::Integrity;
    collector.record(integrity);
    collector.record(probe(t0 + i * kBucket, true, /*root=*/3));
  }
  IncidentTracker tracker(thresholds);
  tracker.observe(collector.windows(thresholds));
  ASSERT_EQ(tracker.incidents().size(), 1u);

  // Wrong-root and wrong-metric hints never match; the metric-scoped hint
  // does even though a higher-weight availability hint overlaps fully.
  tracker.add_hint({t0, t0 + 10 * kBucket, /*root=*/5, -1, -1,
                    "wrong-letter", 10.0});
  tracker.add_hint({t0, t0 + 10 * kBucket, -1, -1,
                    static_cast<int>(SloMetric::Availability),
                    "wrong-metric", 10.0});
  tracker.add_hint({t0, t0 + 10 * kBucket, 3, -1,
                    static_cast<int>(SloMetric::Integrity),
                    "zonemd-private-algorithm", 1.0});
  auto incidents = tracker.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].metric, SloMetric::Integrity);
  EXPECT_EQ(incidents[0].cause, "zonemd-private-algorithm");
}

TEST(IncidentTracker, JsonlIsStableAndMarksOpenIncidents) {
  SloThresholds thresholds = tiny_thresholds();
  thresholds.window_buckets = 1;
  SloCollector collector;
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  // Breaches straight through the end of the timeline: never heals.
  for (int i = 0; i < 6; ++i)
    collector.record(probe(t0 + i * kBucket, false));
  IncidentTracker tracker(thresholds);
  tracker.observe(collector.windows(thresholds));
  ASSERT_EQ(tracker.open_count(), 1u);
  const std::string jsonl = tracker.to_jsonl();
  EXPECT_NE(jsonl.find("\"closed\":null"), std::string::npos);
  EXPECT_NE(jsonl.find("\"cause\":\"unknown\""), std::string::npos);
  EXPECT_EQ(jsonl, tracker.to_jsonl());  // pure function of state
}

// Root c's v4 stream for the dense window sums: per bucket, 20 RTTs and 20
// publication delays whose values span the layout. The RTTs run from 0 us
// through the unit buckets and both edges of several octaves: 10 of them in
// octaves up to [128, 256) us, 9 up to [2^18, 2^19) us and 1 past 2^40 us.
// The delays are 19 up to [1024, 2048) s and 1 near 2^63 s. So a window of
// w such buckets holds 20w values of each, and its p50 rank (10w) and p95
// rank (19w) land exactly on an octave's running total, an octave whose
// last sub-bucket is empty. Bucket 7 holds half as many (5/4/1 and 10/0),
// and buckets 5 and 8 none.
std::vector<SloSample> octave_samples() {
  const util::UnixTime t0 = util::make_time(2023, 7, 3);
  const std::array<uint64_t, 10> low_us = {0, 1, 7, 15, 16, 31, 32, 63, 100, 200};
  const std::array<uint64_t, 9> mid_us = {300,   1000,  1023,  1024,  2047,
                                          20000, 65535, 65536, 300000};
  const std::array<uint64_t, 3> high_us = {uint64_t{1} << 40,
                                           (uint64_t{1} << 41) - 1,
                                           uint64_t{1} << 45};
  const std::array<uint64_t, 19> delays_s = {0,   1,   5,   9,    15,   16,  31,
                                             32,  40,  64,  127,  128,  600, 900,
                                             1023, 1024, 1200, 1500, 1800};
  const std::array<uint64_t, 3> huge_s = {(uint64_t{1} << 63) - 2048,
                                          (uint64_t{1} << 63) - 1024,
                                          uint64_t{1} << 62};
  std::vector<SloSample> samples;
  for (int bucket : {0, 1, 2, 3, 4, 6, 7, 9}) {
    const bool half = bucket == 7;
    SloSample sample = probe(t0 + bucket * kBucket, true, 2);
    samples.push_back(sample);
    const auto add = [&](SloSample::Kind kind, double value) {
      sample.kind = kind;
      sample.value = value;
      ++sample.when;
      samples.push_back(sample);
    };
    // Rotated per bucket, so the buckets hold the same values in a
    // different order and, for bucket 7, a different half.
    for (size_t i = 0; i < (half ? 5 : low_us.size()); ++i)
      add(SloSample::Kind::Latency,
          static_cast<double>(low_us[(i + bucket) % low_us.size()]) / 1000.0);
    for (size_t i = 0; i < (half ? 4 : mid_us.size()); ++i)
      add(SloSample::Kind::Latency,
          static_cast<double>(mid_us[(i + bucket) % mid_us.size()]) / 1000.0);
    add(SloSample::Kind::Latency,
        static_cast<double>(high_us[bucket % high_us.size()]) / 1000.0);
    for (size_t i = 0; i < (half ? 9 : delays_s.size()); ++i)
      add(SloSample::Kind::Publication,
          static_cast<double>(delays_s[(i + bucket) % delays_s.size()]));
    add(SloSample::Kind::Publication,
        static_cast<double>(huge_s[bucket % huge_s.size()]));
  }
  return samples;
}

// Whether quantile(q)'s rank equals the running total at the end of one of
// the histogram's octaves (the 16 unit buckets are octave 0).
bool rank_on_octave_total(const LogLinearHistogram& histogram, double q) {
  const double rank = q * static_cast<double>(histogram.count());
  const auto buckets = histogram.nonzero_buckets();
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i].count;
    const uint32_t octave = LogLinearHistogram::bucket_index(buckets[i].lower) /
                            LogLinearHistogram::kSubBuckets;
    const bool octave_ends =
        i + 1 == buckets.size() ||
        LogLinearHistogram::bucket_index(buckets[i + 1].lower) /
                LogLinearHistogram::kSubBuckets !=
            octave;
    if (octave_ends && rank == static_cast<double>(cumulative)) return true;
  }
  return false;
}

// The sweep slides its sums along each stream, adding each cell as it
// enters the window and subtracting it as it leaves; the quantiles skip
// whole octaves of the dense window sums. Every window must read what a
// fresh merge of its own trailing cells reads.
TEST(SloCollector, SlidingWindowsEqualAFreshMergePerWindow) {
  SloCollector collector;
  // Overlapping runs (buckets 0-3, 2-5) and a gap (6-8) before buckets 9-12;
  // staleness rises with the sample index, so a window whose largest value
  // has left must report a smaller max.
  for (const SloSample& sample : bucket_samples(0, 0)) collector.record(sample);
  for (const SloSample& sample : bucket_samples(2, 3)) collector.record(sample);
  for (const SloSample& sample : bucket_samples(9, 1)) collector.record(sample);
  for (const SloSample& sample : octave_samples()) collector.record(sample);
  // Windows of root c whose p50 RTT, p95 RTT and p95 publication ranks land
  // on an octave total.
  std::array<size_t, 3> on_octave_total{};
  const auto cells = collector.snapshot();
  for (size_t window = 1; window <= 6; ++window) {
    SloThresholds thresholds = tiny_thresholds();
    thresholds.window_buckets = window;
    const std::vector<SloWindow> windows = collector.windows(thresholds);
    ASSERT_FALSE(windows.empty());
    for (const SloWindow& w : windows) {
      SCOPED_TRACE(::testing::Message()
                   << "window " << window << ", stream " << int{w.root}
                   << (w.v6 ? "/v6" : "/v4") << " ending " << w.end);
      const int64_t last = SloCollector::bucket_index(w.end - 1);
      SloCollector::Cell agg;
      for (const auto& [key, cell] : cells)
        if (std::get<0>(key) == w.root && std::get<1>(key) == (w.v6 ? 1 : 0) &&
            std::get<2>(key) > last - static_cast<int64_t>(window) &&
            std::get<2>(key) <= last)
          agg.merge_from(cell);
      EXPECT_EQ(w.probes, agg.probes);
      EXPECT_EQ(w.answered, agg.answered);
      EXPECT_EQ(w.latency_count, agg.rtt_us.count());
      EXPECT_EQ(w.rtt_p50_ms, agg.rtt_us.quantile(0.5) / 1000.0);
      EXPECT_EQ(w.rtt_p95_ms, agg.rtt_us.quantile(0.95) / 1000.0);
      EXPECT_EQ(w.publication_count, agg.publication_s.count());
      EXPECT_EQ(w.publication_p95_s, agg.publication_s.quantile(0.95));
      EXPECT_EQ(w.staleness_count, agg.staleness_s.count());
      EXPECT_EQ(w.staleness_max_s, static_cast<double>(agg.staleness_s.max()));
      EXPECT_EQ(w.integrity_checks, agg.integrity_checks);
      EXPECT_EQ(w.integrity_ok, agg.integrity_ok);
      if (w.root == 2) {
        on_octave_total[0] += rank_on_octave_total(agg.rtt_us, 0.5);
        on_octave_total[1] += rank_on_octave_total(agg.rtt_us, 0.95);
        on_octave_total[2] += rank_on_octave_total(agg.publication_s, 0.95);
      }
    }
  }
  for (size_t count : on_octave_total) EXPECT_GT(count, 10u);
}

}  // namespace
}  // namespace rootsim::obs
