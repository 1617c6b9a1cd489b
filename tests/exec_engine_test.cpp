// Determinism suite for the exec engine: parallel fan-out must be
// output-equivalent to serial execution — same observation vectors, same
// metric totals, byte-identical trace dumps — for every worker count.
#include "exec/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/profiler.h"
#include "measure/campaign.h"
#include "netsim/flight_recorder.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim {
namespace {

TEST(ParallelFor, WorkStealCoversEveryUnitExactlyOnce) {
  constexpr size_t kUnits = 103;  // deliberately not a multiple of workers
  constexpr size_t kWorkers = 4;
  std::vector<std::atomic<int>> hits(kUnits);
  exec::parallel_for(kUnits, kWorkers, [&](size_t unit, size_t worker) {
    hits[unit].fetch_add(1);
    ASSERT_LT(worker, kWorkers);
  });
  for (size_t unit = 0; unit < kUnits; ++unit)
    ASSERT_EQ(hits[unit].load(), 1) << unit;
}

// Many tiny units across several worker counts: a TSan-visible stress of the
// steal path (with units outnumbering workers 100:1, thieves and owners race
// on the same slots constantly). Correctness bar stays exactly-once.
TEST(ParallelFor, WorkStealStressManyTinyUnits) {
  constexpr size_t kUnits = 1600;
  for (size_t workers : {2, 3, 8, 16}) {
    std::vector<std::atomic<int>> hits(kUnits);
    std::atomic<uint64_t> sum{0};
    exec::parallel_for(kUnits, workers, [&](size_t unit, size_t) {
      hits[unit].fetch_add(1);
      sum.fetch_add(unit);
    });
    for (size_t unit = 0; unit < kUnits; ++unit)
      ASSERT_EQ(hits[unit].load(), 1) << unit << " @" << workers << " workers";
    EXPECT_EQ(sum.load(), uint64_t{kUnits} * (kUnits - 1) / 2);
  }
}

TEST(ParallelFor, MoreWorkersThanUnitsAndZeroUnits) {
  std::vector<std::atomic<int>> hits(3);
  exec::parallel_for(3, 16, [&](size_t unit, size_t) { hits[unit]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  bool ran = false;
  exec::parallel_for(0, 4, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// The scheduler packs unit indices into 32 bits, so a region of 2^32 units
// must stop with a message naming the count — in every build type, before
// any thread starts and before `fn` runs once. `fn` exits 0 if it is ever
// called, which a death test counts as a failure.
TEST(ParallelForDeathTest, UnitCountPast32BitsStopsBeforeAnyUnit) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  constexpr size_t kUnits = size_t{1} << 32;
  for (size_t workers : {1, 4}) {
    EXPECT_DEATH(exec::parallel_for(kUnits, workers,
                                    [](size_t, size_t) { std::_Exit(0); }),
                 "4294967296 units")
        << workers << " workers";
  }
}

TEST(ResolveWorkers, RequestedThenEnvThenOne) {
  EXPECT_EQ(exec::resolve_workers(3), 3u);
  setenv("ROOTSIM_WORKERS", "5", 1);
  EXPECT_EQ(exec::resolve_workers(0), 5u);
  setenv("ROOTSIM_WORKERS", "junk", 1);
  EXPECT_EQ(exec::resolve_workers(0), 1u);
  unsetenv("ROOTSIM_WORKERS");
  EXPECT_EQ(exec::resolve_workers(0), 1u);
}

TEST(TracerAbsorb, ReproducesSerialIdsAndSpanLinks) {
  // Serial reference: one tracer records both probes.
  obs::Tracer serial(64);
  uint64_t s1 = serial.begin_span("probe", 100, {{"unit", "0"}});
  serial.event(s1, "query", 101);
  serial.end_span(s1, 102);
  uint64_t s2 = serial.begin_span("probe", 200, {{"unit", "1"}});
  serial.event(s2, "query", 201);
  serial.end_span(s2, 202);

  // Sharded: each probe records into its own tracer, merged in unit order.
  obs::Tracer main(64);
  obs::Tracer shard0(64);
  obs::Tracer shard1(64);
  uint64_t a = shard0.begin_span("probe", 100, {{"unit", "0"}});
  shard0.event(a, "query", 101);
  shard0.end_span(a, 102);
  uint64_t b = shard1.begin_span("probe", 200, {{"unit", "1"}});
  shard1.event(b, "query", 201);
  shard1.end_span(b, 202);
  main.absorb(std::move(shard0));
  main.absorb(std::move(shard1));

  EXPECT_EQ(main.to_jsonl(), serial.to_jsonl());
  EXPECT_EQ(main.recorded(), serial.recorded());
  EXPECT_EQ(shard0.size(), 0u);
  EXPECT_EQ(shard0.recorded(), 0u);
}

TEST(TracerAbsorb, RingDropAccountingMatchesSerial) {
  constexpr size_t kCapacity = 8;
  auto record_unit = [](obs::Tracer& t, size_t unit) {
    uint64_t span =
        t.begin_span("u", static_cast<util::UnixTime>(unit), {});
    for (int e = 0; e < 5; ++e)
      t.event(span, "e", static_cast<util::UnixTime>(unit));
    t.end_span(span, static_cast<util::UnixTime>(unit));
  };
  obs::Tracer serial(kCapacity);
  for (size_t unit = 0; unit < 6; ++unit) record_unit(serial, unit);

  obs::Tracer main(kCapacity);
  obs::Tracer shard0(kCapacity);
  obs::Tracer shard1(kCapacity);
  for (size_t unit = 0; unit < 3; ++unit) record_unit(shard0, unit);
  for (size_t unit = 3; unit < 6; ++unit) record_unit(shard1, unit);
  main.absorb(std::move(shard0));
  main.absorb(std::move(shard1));

  EXPECT_EQ(main.to_jsonl(), serial.to_jsonl());
  EXPECT_EQ(main.dropped(), serial.dropped());
  EXPECT_EQ(main.recorded(), serial.recorded());
}

TEST(MetricsMerge, CountersGaugesHistogramsFold) {
  obs::MetricsRegistry main;
  obs::MetricsRegistry shard;
  main.counter("c", {{"k", "v"}}).inc(2);
  shard.counter("c", {{"k", "v"}}).inc(3);
  shard.counter("only_in_shard");  // zero-valued: series must still appear
  main.gauge("g").set(5);
  shard.gauge("g").set(3);  // gauges are monotone: merge takes the max
  main.histogram("h").observe(5);
  shard.histogram("h").observe(15);
  shard.histogram("h").observe(990);
  shard.histogram("empty_h");  // no observations: series must still appear

  main.merge_from(shard);
  EXPECT_EQ(main.counter_value("c", {{"k", "v"}}), 5u);
  EXPECT_EQ(main.counter_value("only_in_shard", {}), 0u);
  EXPECT_NE(main.to_jsonl().find("only_in_shard"), std::string::npos);
  EXPECT_NE(main.to_jsonl().find("empty_h"), std::string::npos);

  auto samples = main.snapshot();
  bool checked_gauge = false, checked_hist = false;
  for (const auto& sample : samples) {
    if (sample.name == "g") {
      EXPECT_DOUBLE_EQ(sample.value, 5.0);
      checked_gauge = true;
    }
    if (sample.name == "h") {
      // The shard's buckets add to main's: one each at 5, [15, 16) and
      // [960, 992).
      const obs::LogLinearHistogram& h = sample.histogram;
      EXPECT_EQ(h.count(), 3u);
      EXPECT_EQ(h.sum(), 5u + 15u + 990u);
      EXPECT_EQ(h.max(), 990u);
      const auto buckets = h.nonzero_buckets();
      ASSERT_EQ(buckets.size(), 3u);
      EXPECT_EQ(buckets[0].lower, 5u);
      EXPECT_EQ(buckets[1].lower, 15u);
      EXPECT_EQ(buckets[2].lower, 960u);
      for (const auto& bucket : buckets) EXPECT_EQ(bucket.count, 1u);
      checked_hist = true;
    }
  }
  EXPECT_TRUE(checked_gauge);
  EXPECT_TRUE(checked_hist);
}

// Adversarially skewed unit durations: one unit costs ~100x the rest, and
// work stealing drains the rest of its worker's range around it. The
// *outputs* — metrics, trace, rssac002 — must be byte-identical to a serial
// run for every worker count and every position of the long pole, because
// obs shards are per unit and merge in unit order.
class SkewedUnits : public ::testing::TestWithParam<size_t> {};

std::string skewed_run(size_t workers, size_t units, size_t heavy_unit) {
  obs::Recorder main;
  exec::ObsShards shards(main.obs(), units);
  exec::parallel_for(
      units, workers,
      [&](size_t unit, size_t) {
        obs::Obs sink = shards.shard(unit);
        uint64_t span = sink.tracer->begin_span(
            "unit", static_cast<util::UnixTime>(unit),
            {{"unit", util::format("%zu", unit)}});
        sink.count("units.done");
        sink.count("units.kind", {{"heavy", unit == heavy_unit ? "1" : "0"}});
        obs::Rssac002Sample sample;
        sample.instance = "test-instance";
        sample.when = static_cast<util::UnixTime>(1694593200 + unit);
        sample.udp_queries = 1;
        sample.delivered = true;
        sample.query_bytes = 40 + unit % 7;
        sample.response_bytes = 500 + unit % 13;
        sample.source_id = unit % 5;
        sink.rssac002->record(sample);
        // The long pole: enough wall time that every other worker finishes
        // its own block and has to steal to stay busy.
        const auto cost = std::chrono::microseconds(unit == heavy_unit ? 20000 : 200);
        std::this_thread::sleep_for(cost);
        sink.tracer->end_span(span, static_cast<util::UnixTime>(unit));
      });
  shards.merge();
  return main.metrics().to_jsonl() + "\n--\n" + main.tracer().to_jsonl() +
         "\n--\n" + main.rssac002().to_jsonl();
}

TEST_P(SkewedUnits, ExportsByteIdenticalAtEveryWorkerCount) {
  constexpr size_t kUnits = 24;
  const size_t heavy_unit = GetParam();
  const std::string serial = skewed_run(1, kUnits, heavy_unit);
  ASSERT_FALSE(serial.empty());
  for (size_t workers : {2, 4, 8}) {
    EXPECT_EQ(skewed_run(workers, kUnits, heavy_unit), serial)
        << workers << " workers, heavy unit " << heavy_unit;
  }
}

// The long pole first, last, and at an arbitrary interior position (17 plays
// the "random" draw — fixed so failures reproduce).
INSTANTIATE_TEST_SUITE_P(HeavyUnitPositions, SkewedUnits,
                         ::testing::Values(0u, 23u, 17u));

// Work stealing must actually steal under skew: with the heavy unit first,
// worker 0 is pinned to it while the rest of its block gets stolen away.
TEST(WorkSteal, SkewTriggersSteals) {
  constexpr size_t kUnits = 32;
  exec::Profiler profiler;
  exec::parallel_for(
      kUnits, 4,
      [&](size_t unit, size_t) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(unit == 0 ? 20000 : 200));
      },
      &profiler);
  uint64_t total_steals = 0;
  for (const auto& report : profiler.worker_reports())
    total_steals += report.steal_count;
  EXPECT_GT(total_steals, 0u);
  EXPECT_NE(profiler.to_json().find("\"sched\":\"steal\""), std::string::npos);
}

bool observations_equal(const measure::ZoneAuditObservation& a,
                        const measure::ZoneAuditObservation& b) {
  return a.vp_id == b.vp_id && a.table2_vp_id == b.table2_vp_id &&
         a.root_index == b.root_index && a.family == b.family &&
         a.old_b_address == b.old_b_address && a.when == b.when &&
         a.soa_serial == b.soa_serial && a.verdict == b.verdict &&
         a.zonemd == b.zonemd &&
         a.affects_all_servers == b.affects_all_servers && a.note == b.note;
}

struct AuditRun {
  std::vector<measure::ZoneAuditObservation> observations;
  std::string metrics_jsonl;
  std::string trace_jsonl;
  std::string rssac002_jsonl;
  uint64_t flight_recorded = 0;
  std::string flight_summary;  ///< failure_summary(), one entry per line
};

AuditRun run_audit(size_t workers,
                   netsim::FlightRecorder* flight_recorder = nullptr,
                   double loss = 0.0) {
  measure::CampaignConfig config;
  config.zone.tld_count = 30;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  config.transport.flight_recorder = flight_recorder;
  config.transport.defaults.loss = loss;
  obs::Recorder recorder;
  measure::Campaign campaign(config, recorder.obs());
  AuditRun run;
  run.observations = campaign.run_zone_audit(12, workers);
  run.metrics_jsonl = recorder.metrics().to_jsonl();
  run.trace_jsonl = recorder.tracer().to_jsonl();
  run.rssac002_jsonl = recorder.rssac002().to_jsonl();
  if (flight_recorder) {
    run.flight_recorded = flight_recorder->recorded();
    for (const auto& e : flight_recorder->failure_summary().entries)
      run.flight_summary += util::format(
          "%d/%s/%s n=%llu %lld..%lld\n", e.root_index, e.v6 ? "v6" : "v4",
          std::string(netsim::to_string(e.cause)).c_str(),
          static_cast<unsigned long long>(e.count),
          static_cast<long long>(e.first), static_cast<long long>(e.last));
  }
  return run;
}

// The tentpole acceptance property: worker count must not be observable in
// any output — observations, metric export, trace export.
TEST(ZoneAudit, WorkerCountInvisibleInEveryOutput) {
  AuditRun serial = run_audit(1);
  ASSERT_FALSE(serial.observations.empty());
  ASSERT_FALSE(serial.metrics_jsonl.empty());
  ASSERT_FALSE(serial.trace_jsonl.empty());
  ASSERT_FALSE(serial.rssac002_jsonl.empty());
  for (size_t workers : {2, 4, 8}) {
    AuditRun parallel = run_audit(workers);
    ASSERT_EQ(parallel.observations.size(), serial.observations.size())
        << workers << " workers";
    for (size_t i = 0; i < serial.observations.size(); ++i)
      ASSERT_TRUE(
          observations_equal(parallel.observations[i], serial.observations[i]))
          << workers << " workers, observation " << i;
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.trace_jsonl, serial.trace_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.rssac002_jsonl, serial.rssac002_jsonl)
        << workers << " workers";
  }
}

// FNV-1a 64 of an export, in hex.
std::string digest(const std::string& text) {
  return util::format("%016llx",
                      static_cast<unsigned long long>(util::fnv1a(text)));
}

// The invariance suites compare runs with each other, so a change that moves
// every worker count's exports alike passes them. These digests pin the
// audit path's bytes; re-record one only for an intended change of its
// export.
TEST(ZoneAudit, ExportsMatchRecordedDigests) {
  const AuditRun run = run_audit(1);
  EXPECT_EQ(digest(run.metrics_jsonl), "c7a04ef3f02920ce");
  EXPECT_EQ(digest(run.trace_jsonl), "fde2925d4d7b01d6");
  EXPECT_EQ(digest(run.rssac002_jsonl), "08f46c237477301a");
}

// Same property with the *diagnostic* surfaces switched on: the exec-pool
// profiler (via ROOTSIM_PROFILE) and a shared flight recorder must not leak
// into any deterministic export for any worker count. The profiler's own
// artifact and the flight ring are wall-clock/scheduling-ordered and are
// deliberately not byte-compared — only their presence and totals are.
TEST(ZoneAudit, ByteIdenticalWithProfilerAndFlightRecorderEnabled) {
  const char* profile_path = "PROF_exec_engine_test.json";
  setenv("ROOTSIM_PROFILE", profile_path, 1);
  netsim::FlightRecorder serial_flight(64);
  AuditRun serial = run_audit(1, &serial_flight);
  ASSERT_FALSE(serial.rssac002_jsonl.empty());
  EXPECT_GT(serial.flight_recorded, 0u);
  std::FILE* artifact = std::fopen(profile_path, "r");
  EXPECT_NE(artifact, nullptr) << "profiler artifact was not written";
  if (artifact) std::fclose(artifact);
  for (size_t workers : {2, 4, 8}) {
    netsim::FlightRecorder flight(64);
    AuditRun parallel = run_audit(workers, &flight);
    ASSERT_EQ(parallel.observations.size(), serial.observations.size())
        << workers << " workers";
    for (size_t i = 0; i < serial.observations.size(); ++i)
      ASSERT_TRUE(
          observations_equal(parallel.observations[i], serial.observations[i]))
          << workers << " workers, observation " << i;
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.trace_jsonl, serial.trace_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.rssac002_jsonl, serial.rssac002_jsonl)
        << workers << " workers";
    // The flight recorder sees the same *set* of exchanges in any schedule.
    EXPECT_EQ(parallel.flight_recorded, serial.flight_recorded)
        << workers << " workers";
  }
  unsetenv("ROOTSIM_PROFILE");
  std::remove(profile_path);
}

// Every worker records into the one attached recorder. On a lossy transport
// the probes time out and retry, so the failure rollup has entries; it and
// the record count must not depend on how many workers shared the ring.
TEST(ZoneAudit, LossyFlightRecorderCountsMatchAtEveryWorkerCount) {
  constexpr double kLoss = 0.2;
  netsim::FlightRecorder serial_flight(64);
  const AuditRun serial = run_audit(1, &serial_flight, kLoss);
  ASSERT_FALSE(serial.flight_summary.empty());
  EXPECT_GT(serial.flight_recorded, serial_flight.size());
  for (size_t workers : {2, 4, 8}) {
    netsim::FlightRecorder flight(64);
    const AuditRun parallel = run_audit(workers, &flight, kLoss);
    EXPECT_EQ(parallel.flight_recorded, serial.flight_recorded)
        << workers << " workers";
    EXPECT_EQ(parallel.flight_summary, serial.flight_summary)
        << workers << " workers";
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl)
        << workers << " workers";
  }
}

// A shortened schedule keeps the SLO tests fast. It covers the b.root
// renumbering window and opens one incident, and its 448 buckets span four
// of run_slo_timeline's 120-bucket chunks, so every run below crosses chunk
// boundaries.
measure::CampaignConfig slo_config() {
  measure::CampaignConfig config;
  config.zone.tld_count = 25;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  config.schedule.start = util::make_time(2023, 8, 20);
  config.schedule.end = util::make_time(2023, 12, 10);
  return config;
}

// The SLO plane's units fill disjoint slots of one chunk array and its drain
// sweeps the streams on the workers, so its exports inherit the same
// acceptance bar: slo.jsonl and incidents.jsonl byte-identical at every
// worker count — the steal schedule must be as invisible as the worker
// count.
TEST(SloTimeline, ExportsByteIdenticalAcrossWorkerCounts) {
  const measure::Campaign campaign(slo_config());

  auto run = [&](size_t workers) {
    netsim::FlightRecorder flight(64);
    measure::SloTimelineOptions options;
    options.flight_recorder = &flight;
    options.workers = workers;
    auto result = campaign.run_slo_timeline(options);
    return std::pair<std::string, std::string>(result.slo_jsonl,
                                               result.incidents_jsonl);
  };

  const auto serial = run(1);
  ASSERT_FALSE(serial.first.empty());
  ASSERT_FALSE(serial.second.empty());
  for (size_t workers : {2u, 8u}) {
    auto parallel = run(workers);
    EXPECT_EQ(parallel.first, serial.first)
        << "slo.jsonl @" << workers << " workers";
    EXPECT_EQ(parallel.second, serial.second)
        << "incidents.jsonl @" << workers << " workers";
  }
}

// A campaign built with a Recorder gives a plain campaign's exports, call
// after call: the call reads only the samples it took itself, never what
// earlier calls left in the Recorder.
TEST(SloTimeline, RecorderCampaignRepeatsThePlainExports) {
  measure::SloTimelineOptions options;
  options.workers = 2;
  const measure::SloTimelineResult plain =
      measure::Campaign(slo_config()).run_slo_timeline(options);
  ASSERT_FALSE(plain.slo_jsonl.empty());
  obs::Recorder recorder;
  const measure::Campaign campaign(slo_config(), recorder.obs());
  for (int call = 1; call <= 2; ++call) {
    const measure::SloTimelineResult result = campaign.run_slo_timeline(options);
    EXPECT_EQ(result.probes, plain.probes) << "call " << call;
    EXPECT_EQ(result.slo_jsonl, plain.slo_jsonl) << "call " << call;
    EXPECT_EQ(result.incidents_jsonl, plain.incidents_jsonl) << "call " << call;
  }
}

// What the call returns besides its JSONL: the seven roll-up counters and
// the window count, pinned with the exports' digests at every worker count.
// With no probes only the buckets of the 00:00 and 12:00 publications hold
// samples (this campaign's zone carries no ZONEMD, so there are no integrity
// checks): every other bucket and the last one are silent, and each stream
// ends one window short. Re-record a value only for an intended change of
// the call's output.
TEST(SloTimeline, RollUpCountersMatchRecordedValuesAtEveryWorkerCount) {
  const measure::Campaign campaign(slo_config());
  struct Case {
    size_t probes_per_bucket;
    // probes, failed_probes, latency_samples, publication_count,
    // staleness_samples, integrity_checks, integrity_failures, windows
    std::array<uint64_t, 8> want;
    const char* slo_digest;
    const char* incidents_digest;
  };
  const Case cases[] = {
      {12,
       {139776, 45, 139731, 34944, 139731, 0, 0, 11648},
       "cf7db8ed2a96c075",
       "7bc7ad213f505c20"},
      {0,
       {0, 0, 0, 34944, 0, 0, 0, 11622},
       "5a9a28ae1f83f45e",
       "cbf29ce484222325"},
  };
  for (const Case& c : cases) {
    for (size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message() << c.probes_per_bucket
                                        << " probes per bucket, " << workers
                                        << " workers");
      measure::SloTimelineOptions options;
      options.probes_per_bucket = c.probes_per_bucket;
      options.workers = workers;
      const measure::SloTimelineResult result =
          campaign.run_slo_timeline(options);
      const std::array<uint64_t, 8> got = {
          result.probes,             result.failed_probes,
          result.latency_samples,    result.publication_count,
          result.staleness_samples,  result.integrity_checks,
          result.integrity_failures, result.windows.size()};
      EXPECT_EQ(got, c.want);
      EXPECT_EQ(digest(result.slo_jsonl), c.slo_digest);
      EXPECT_EQ(digest(result.incidents_jsonl), c.incidents_digest);
    }
  }
}

}  // namespace
}  // namespace rootsim
