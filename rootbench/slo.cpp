// slo-froot: the froot-buildout library scenario (3-year horizon, hourly
// rounds, route fallback, a KSK roll) through Campaign::run_slo_timeline.
//
// One call is 4,380 small 6-hour bucket units: anycast route selection per
// probe, the outage model, SloCollector records, the per-bucket shard merge,
// the window sweep and the incident tracker. No zone is built.

#include <algorithm>
#include <cmath>
#include <memory>

#include "rss/outages.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "util/geo.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace rootbench {

namespace {

constexpr size_t kMinCalls = 3;
constexpr size_t kMaxCalls = 100;
// Clean transfers of the bypass probe that measures the audit-path layers on
// this campaign (the SLO run itself never transfers a zone).
constexpr size_t kBypassTransfers = 4;

struct SloSetup {
  scenario::ScenarioSpec spec;
  measure::SloTimelineOptions options;
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<measure::Campaign> campaign;
  double apply_s = 0;
  double build_s = 0;
};

SloSetup set_up(const RunOptions& run, bool with_recorder,
                SpanLog* log = nullptr, uint32_t parent = 0) {
  SloSetup setup;
  Clock::time_point start = Clock::now();
  scenario::Applied applied;
  {
    ScopedSpan span(log, "scenario.apply", parent);
    setup.spec = scenario::froot_buildout();
    setup.spec.seed = run.seed;
    applied = scenario::apply(setup.spec);
    setup.options = applied.slo;
    setup.options.workers = run.workers;
  }
  setup.apply_s = seconds_since(start);
  start = Clock::now();
  {
    ScopedSpan span(log, "measure.campaign_build", parent);
    if (with_recorder) setup.recorder = std::make_unique<obs::Recorder>();
    setup.campaign = std::make_unique<measure::Campaign>(
        applied.campaign, with_recorder ? setup.recorder->obs() : obs::Obs{});
  }
  setup.build_s = seconds_since(start);
  return setup;
}

/// Buckets of the campaign's horizon: the call's work units.
size_t bucket_count(const measure::Campaign& campaign) {
  const auto& schedule = campaign.schedule().config();
  return static_cast<size_t>(obs::SloCollector::bucket_index(schedule.end - 1) -
                             obs::SloCollector::bucket_index(schedule.start) + 1);
}

/// Runs one timed SLO call and checks it: one availability probe per
/// (bucket, letter, family, probe slot), and byte-identical exports.
double timed_slo(const SloSetup& setup, const RunOptions& options,
                 Report& report, measure::SloTimelineResult* out = nullptr) {
  const Clock::time_point start = Clock::now();
  measure::SloTimelineResult result =
      setup.campaign->run_slo_timeline(setup.spec, setup.options);
  const double wall = seconds_since(start);
  ++report.attempted;
  const uint64_t expected = bucket_count(*setup.campaign) * obs::kSloRoots * 2 *
                            setup.options.probes_per_bucket;
  if (result.probes != expected) {
    report.fail(util::format("%llu probes, expected %llu",
                             static_cast<unsigned long long>(result.probes),
                             static_cast<unsigned long long>(expected)));
  } else {
    check_digest(options, slo_digest(result.slo_jsonl, result.incidents_jsonl),
                 report);
  }
  if (out) *out = std::move(result);
  return wall;
}

void run_untraced(const RunOptions& options, Report& report) {
  // setup_s: the median over the set-up seed family, a batch before each of
  // the first kMinCalls calls; the calls' own campaign is set up untimed.
  const SloSetup setup = set_up(options, false);
  trim_heap();
  const double setup_rss = current_rss_mb();
  const double probes = static_cast<double>(bucket_count(*setup.campaign) *
                                            obs::kSloRoots * 2 *
                                            setup.options.probes_per_bucket);
  double timed = 0;
  for (size_t call = 0; call < kMaxCalls; ++call) {
    if (call >= kMinCalls && timed >= options.seconds) break;
    if (call < kMinCalls) {
      time_setup_batch(options.seed, call, kMinCalls, [&](uint64_t seed) {
        RunOptions family = options;
        family.seed = seed;
        const Clock::time_point start = Clock::now();
        const SloSetup timed = set_up(family, false);
        return seconds_since(start);
      }, report);
    }
    reset_peak_rss();
    const double wall = timed_slo(setup, options, report);
    report.peak_samples.push_back(peak_rss_mb());
    report.run_samples.push_back(wall);
    timed += wall;
  }
  add_end_to_end(report, probes, setup_rss);
}

// Mirrors the refresh-delay model of measure/slo_timeline.cpp, so the replay
// reproduces the call's samples exactly.
double publication_delay_s(uint64_t seed, uint32_t root, uint32_t site_id,
                           util::UnixTime publish) {
  util::Rng rng = util::Rng(seed).fork(
      util::format("slo-pub-%u-%u-%lld", root, site_id,
                   static_cast<long long>(publish)));
  return std::min(rng.lognormal(std::log(600.0), 0.5), 1800.0);
}

/// The traced replay of one SLO call: the same draws, route selections and
/// samples as Campaign::run_slo_timeline, one bucket at a time, with the
/// route selection, outage model and fallback lookups timed per call and the
/// samples fed through SloReplay. Returns the exports it produced.
std::pair<std::string, std::string> replay_slo(
    const SloSetup& setup, const std::vector<obs::CauseHint>& hints,
    SpanLog& log, uint32_t replay_root, Report& report) {
  const measure::Campaign& campaign = *setup.campaign;
  const measure::SloTimelineOptions& options = setup.options;
  const auto& router = campaign.router();
  const auto& topology = campaign.topology();
  const auto& vps = campaign.vantage_points();
  const auto& schedule = campaign.schedule();
  const netsim::Transport& transport = campaign.transport();
  const uint64_t seed = campaign.config().seed;
  const util::UnixTime start = schedule.config().start;
  const util::UnixTime end = schedule.config().end;
  constexpr int64_t kBucketSeconds = obs::SloCollector::kBucketSeconds;
  constexpr int64_t kPublishSeconds = 12 * 3600;

  std::vector<rss::ScriptedOutage> scripted = campaign.config().scripted_outages;
  scripted.insert(scripted.end(), options.scripted_outages.begin(),
                  options.scripted_outages.end());
  CallTimer route_at(log, "netsim.route_at");
  CallTimer announced(log, "netsim.announced_routes");
  CallTimer outage_model(log, "rss.site_available_at", false);
  const auto available = [&](uint32_t site_id, uint32_t root, util::UnixTime t) {
    return outage_model.time([&] {
      int region = -1;
      int type = -1;
      if (site_id < topology.sites.size()) {
        region = static_cast<int>(topology.sites[site_id].region);
        type = static_cast<int>(topology.sites[site_id].type);
      }
      return rss::site_available_at(site_id, static_cast<int>(root), t, start,
                                    end, options.outages, scripted, region, type);
    });
  };

  SloReplay slo(log, replay_root);
  const util::Rng timeline_rng = util::Rng(seed).fork("slo-timeline");
  const int64_t first_bucket = obs::SloCollector::bucket_index(start);
  const size_t buckets = bucket_count(campaign);
  std::vector<obs::SloSample> samples;
  for (size_t unit = 0; unit < buckets; ++unit) {
    const uint32_t bucket_span = log.open("measure.slo_bucket", replay_root);
    const int64_t bucket = first_bucket + static_cast<int64_t>(unit);
    const util::UnixTime bucket_begin = obs::SloCollector::bucket_start(bucket);
    util::Rng rng = timeline_rng.fork(
        util::format("bucket-%lld", static_cast<long long>(bucket)));
    samples.clear();
    for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
      for (int fam = 0; fam < 2; ++fam) {
        const bool v6 = fam == 1;
        const util::IpFamily family = v6 ? util::IpFamily::V6 : util::IpFamily::V4;
        for (size_t p = 0; p < options.probes_per_bucket; ++p) {
          util::UnixTime t = bucket_begin + static_cast<int64_t>(rng.uniform(
                                                static_cast<uint64_t>(kBucketSeconds)));
          t = std::clamp<util::UnixTime>(t, start, end - 1);
          const measure::VantagePoint& vp = vps[rng.uniform(vps.size())];
          const uint64_t round = schedule.round_at(t);
          const netsim::RouteResult route = route_at.time(
              [&] { return router.route_at(vp.view, root, family, round); });
          uint32_t serving_site = route.site_id;
          bool up = available(serving_site, root, t);
          double rtt_ms =
              up ? transport.effective_rtt_ms(route, static_cast<int>(root), t)
                 : 0.0;
          if (!up && options.route_fallback_candidates > 0) {
            const auto routes = announced.time([&] {
              return router.announced_routes(vp.view, root, family,
                                             options.route_fallback_candidates);
            });
            for (const auto& alt : routes) {
              if (alt.site_id == route.site_id) continue;
              if (!available(alt.site_id, root, t)) continue;
              serving_site = alt.site_id;
              up = true;
              rtt_ms = util::fiber_rtt_ms(router.distance_km(vp.view, alt.site_id)) +
                       2.0;
              break;
            }
          }
          obs::SloSample sample;
          sample.root = static_cast<uint8_t>(root);
          sample.v6 = v6;
          sample.when = t;
          sample.kind = obs::SloSample::Kind::Availability;
          sample.ok = up;
          samples.push_back(sample);
          if (up) {
            sample.kind = obs::SloSample::Kind::Latency;
            sample.value = rtt_ms;
            samples.push_back(sample);
            const util::UnixTime publish = t - (t % kPublishSeconds);
            if (publish >= start) {
              const double delay =
                  publication_delay_s(seed, root, serving_site, publish);
              sample.kind = obs::SloSample::Kind::Staleness;
              sample.value = t < publish + static_cast<int64_t>(delay)
                                 ? static_cast<double>(t - publish)
                                 : 0.0;
              samples.push_back(sample);
            }
          }
        }
        const util::UnixTime check_at = bucket_begin + kBucketSeconds / 2;
        if (check_at >= start && check_at < end) {
          const auto mode = campaign.authority().zonemd_mode_at(check_at);
          if (mode != dnssec::SigningPolicy::ZonemdMode::None) {
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = check_at;
            sample.kind = obs::SloSample::Kind::Integrity;
            sample.ok = mode == dnssec::SigningPolicy::ZonemdMode::Sha384;
            samples.push_back(sample);
          }
        }
        for (util::UnixTime publish =
                 bucket_begin + ((kPublishSeconds - bucket_begin % kPublishSeconds) %
                                 kPublishSeconds);
             publish < bucket_begin + kBucketSeconds; publish += kPublishSeconds) {
          if (publish < start || publish >= end) continue;
          const uint64_t round = schedule.round_at(publish);
          for (size_t s = 0; s < options.publication_samples; ++s) {
            const measure::VantagePoint& vp = vps[rng.uniform(vps.size())];
            const netsim::RouteResult route = route_at.time(
                [&] { return router.route_at(vp.view, root, family, round); });
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = publish;
            sample.kind = obs::SloSample::Kind::Publication;
            sample.value = publication_delay_s(seed, root, route.site_id, publish);
            samples.push_back(sample);
          }
        }
      }
    }
    route_at.flush(log, bucket_span);
    announced.flush(log, bucket_span);
    outage_model.flush(log, bucket_span);
    slo.add_bucket(samples, bucket_span);
    log.close(bucket_span);
  }
  auto exports = slo.finish(options.thresholds, hints, campaign.config().scenario_name,
                            report);

  report.add("netsim.route_at_us.p50", quantile(route_at.samples_us(), 0.5), "us");
  report.add("netsim.route_at_us.p99", quantile(route_at.samples_us(), 0.99), "us");
  report.add("netsim.announced_routes_us", median(announced.samples_us()), "us");
  if (log.enabled())
    report.note(util::format(
        "netsim.route_at: %llu calls, %.1f ms; announced_routes: %llu calls, "
        "%.1f ms; rss.site_available_at: %llu calls, %.1f ms",
        static_cast<unsigned long long>(route_at.total_calls()), route_at.total_ms(),
        static_cast<unsigned long long>(announced.total_calls()),
        announced.total_ms(),
        static_cast<unsigned long long>(outage_model.total_calls()),
        outage_model.total_ms()));
  return exports;
}

void run_traced(const RunOptions& options, Report& report) {
  SpanLog log;
  const uint32_t setup_root = log.open("setup", 0);
  SloSetup plain = set_up(options, false, &log, setup_root);
  log.close(setup_root);
  report.add("scenario.apply_ms", plain.apply_s * 1e3, "ms");
  report.add("measure.campaign_build_ms", plain.build_s * 1e3, "ms");

  // One untimed call first, so both timed calls below run in a warmed-up
  // process (heap grown, code paged in).
  plain.campaign->run_slo_timeline(plain.spec, plain.options);

  double untraced_s = 0;
  double cpu_s = 0;
  {
    const uint32_t root = log.open("run.untraced", 0);
    const double cpu_start = process_cpu_seconds();
    untraced_s = timed_slo(plain, options, report);
    cpu_s = process_cpu_seconds() - cpu_start;
    log.close(root);
  }

  // The same call recording into an obs::Recorder: the program's own
  // counters, and what that recording costs against the call above.
  measure::SloTimelineResult recorded_result;
  double recorded_s = 0;
  {
    SloSetup recorded = set_up(options, true);
    const uint32_t root = log.open("run.recorded", 0);
    recorded_s = timed_slo(recorded, options, report, &recorded_result);
    log.close(root);
    CounterSnapshot::take(recorded.recorder->metrics()).report(report);
  }
  report.add("trace.recorder_overhead_s", recorded_s - untraced_s, "s");
  report.add("exec.busy_ratio",
             cpu_s / (untraced_s * static_cast<double>(options.workers)), "ratio");

  // The replay must reproduce the call's exports byte for byte. It runs
  // with spans and call timers off, then traced; the difference is the
  // tracing overhead. Unlike the audits' short replays it gets no warm-up
  // pass: the calls above ran the same code, and a ~20 s pass would push the
  // traced run toward its time limit. The untraced pass pays the first
  // page-in of the collector's heap, well under a second of it.
  const std::string expected =
      slo_digest(recorded_result.slo_jsonl, recorded_result.incidents_jsonl);
  const std::vector<obs::CauseHint> hints = recorded_result.hints;
  recorded_result = measure::SloTimelineResult{};
  double replay_untraced_s = 0;
  {
    SpanLog off(false);
    Report discarded;
    const Clock::time_point start = Clock::now();
    const auto [slo_jsonl, incidents_jsonl] =
        replay_slo(plain, hints, off, 0, discarded);
    replay_untraced_s = seconds_since(start);
    if (slo_digest(slo_jsonl, incidents_jsonl) != expected)
      report.fail("the untraced replay's slo/incidents exports differ from the call's");
  }
  const Clock::time_point start = Clock::now();
  const uint32_t replay_root = log.open("replay", 0);
  const auto [slo_jsonl, incidents_jsonl] =
      replay_slo(plain, hints, log, replay_root, report);
  log.close(replay_root);
  const double replay_traced_s = seconds_since(start);
  if (slo_digest(slo_jsonl, incidents_jsonl) != expected)
    report.fail("the traced replay's slo/incidents exports differ from the call's");
  report.add("trace.run_s", replay_traced_s, "s");
  report.add("trace.untraced_run_s", replay_untraced_s, "s");
  report.add("trace.overhead_s", replay_traced_s - replay_untraced_s, "s");
  report.note(util::format(
      "serial replay %.3f s traced, %.3f s untraced; the call at %zu workers: "
      "%.3f s",
      replay_traced_s, replay_untraced_s, options.workers, untraced_s));

  // The SLO call never transfers a zone: the audit-path layers are measured
  // on a bypass probe of a few clean transfers on this campaign.
  std::string error;
  const std::vector<AuditUnit> units =
      audit_units(*plain.campaign, {}, kBypassTransfers, &error);
  trace_audit_path(*plain.campaign, units, options.workers, false, "bypass.",
                   log, report);
  write_trace(options, log, {replay_root}, report);
}

}  // namespace

SloReplay::SloReplay(SpanLog& log, uint32_t parent)
    : log_(log), parent_(parent), main_(std::make_unique<obs::SloCollector>()) {}

void SloReplay::add_bucket(const std::vector<obs::SloSample>& samples,
                           uint32_t parent) {
  obs::SloCollector shard;
  if (!log_.enabled()) {
    for (const obs::SloSample& sample : samples) shard.record(sample);
    main_->merge_from(shard);
    return;
  }
  const Clock::time_point start = Clock::now();
  for (const obs::SloSample& sample : samples) shard.record(sample);
  const Clock::time_point recorded = Clock::now();
  main_->merge_from(shard);
  const Clock::time_point merged = Clock::now();
  const int64_t record_ns = nanos_between(start, recorded);
  const int64_t merge_ns = nanos_between(recorded, merged);
  record_ns_ += record_ns;
  records_ += samples.size();
  merge_ns_ += merge_ns;
  log_.add_aggregate("obs.slo_record", parent, record_ns, samples.size());
  log_.add_aggregate("obs.slo_merge", parent, merge_ns, 1);
}

std::pair<std::string, std::string> SloReplay::finish(
    const obs::SloThresholds& thresholds,
    const std::vector<obs::CauseHint>& hints, const std::string& scenario,
    Report& report) {
  const size_t cells = main_->cell_count();
  std::vector<obs::SloWindow> windows;
  const uint32_t sweep = log_.open("obs.slo_windows", parent_);
  windows = main_->windows(thresholds);
  log_.close(sweep);
  std::vector<obs::Incident> incidents;
  const uint32_t tracking = log_.open("obs.incident_observe", parent_);
  {
    obs::IncidentTracker tracker(thresholds);
    tracker.observe(windows);
    tracker.add_hints(hints);
    incidents = tracker.incidents();
  }
  log_.close(tracking);

  // The heap the collector holds is what freeing it gives back.
  const double heap_before = heap_in_use_bytes();
  main_.reset();
  const double collector_bytes = heap_before - heap_in_use_bytes();
  const double bytes_per_cell = cells ? collector_bytes / static_cast<double>(cells) : 0;
  report.add("obs.slo_record_ns",
             records_ ? static_cast<double>(record_ns_) / static_cast<double>(records_)
                      : 0,
             "ns");
  report.add("obs.slo_merge_ms", static_cast<double>(merge_ns_) / 1e6, "ms");
  report.add("obs.slo_windows_ms", log_.duration_ms(sweep), "ms");
  report.add("obs.slo_cells", static_cast<double>(cells), "count");
  report.add("obs.slo_bytes_per_cell", bytes_per_cell, "bytes");
  report.add("obs.incident_observe_ms", log_.duration_ms(tracking), "ms");
  if (log_.enabled())
    report.note(util::format(
        "obs: %llu records, %zu cells holding %.1f MiB of heap (%.0f B/cell); "
        "%zu windows, %zu incidents",
        static_cast<unsigned long long>(records_), cells,
        collector_bytes / 1048576.0, bytes_per_cell, windows.size(),
        incidents.size()));
  return {obs::SloCollector::windows_to_jsonl(windows, scenario),
          obs::IncidentTracker::incidents_to_jsonl(incidents, scenario)};
}

Report run_slo(const RunOptions& options) {
  Report report;
  if (options.trace)
    run_traced(options, report);
  else
    run_untraced(options, report);
  return report;
}

}  // namespace rootbench
