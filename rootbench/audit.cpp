// audit-cold and audit-warm: the paper's RQ3 zone audit (ZONEMD + every
// RRSIG of AXFR'd root zones) over the paper-2023 campaign.
//
// Both workloads run Campaign::run_zone_audit over the 66-event Table 2 fault
// plan at a fixed worker count. audit-cold builds a fresh campaign for every
// call, so each call pays zone builds, RSA signing, ZONEMD and AXFR encodes
// behind the zone lock. audit-warm adds clean transfers, fills the zone and
// AXFR caches during set-up and then repeats the call: probe, transport, AXFR
// decode and validation only.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>

#include "crypto/rsa.h"
#include "dns/zone.h"
#include "dnssec/signer.h"
#include "exec/engine.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace rootbench {

namespace {

// The campaign bench/bench_common.h configures for the paper benches.
constexpr size_t kTldCount = 120;
constexpr size_t kRsaModulusBits = 768;
// Clean transfers per audit call, besides the 66 fault-plan units. The cold
// audit runs the fault plan alone (16 serials fixed by the spec): with the
// paper-sized 400 clean samples (228 serials) one cold call takes 20-28 s at
// 4 workers, too long for a run to hold several calls. The warm audit adds
// clean samples, which only cost transfer and validation there.
constexpr size_t kColdCleanSamples = 0;
constexpr size_t kWarmCleanSamples = 20;
// Calls per run: at least kMinCalls, then until --seconds of timed work.
constexpr size_t kMinCalls = 3;
constexpr size_t kMaxCalls = 400;
// audit-warm set-ups (apply + construct + cache fill) per run; the reported
// setup_s is their median.
constexpr size_t kWarmRounds = 3;
// Distinct messages the RSA signing probe signs.
constexpr size_t kSignProbes = 200;
// Route fallback width the SLO monitor uses (scenario route_fallback).
constexpr size_t kFallbackRoutes = 8;

struct AuditSetup {
  scenario::ScenarioSpec spec;
  size_t clean_samples = 0;
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<measure::Campaign> campaign;
  double apply_s = 0;
  double build_s = 0;
};

AuditSetup set_up(uint64_t seed, bool warm, bool with_recorder,
                  SpanLog* log = nullptr, uint32_t parent = 0) {
  AuditSetup setup;
  setup.clean_samples = warm ? kWarmCleanSamples : kColdCleanSamples;
  Clock::time_point start = Clock::now();
  scenario::Applied applied;
  {
    ScopedSpan span(log, "scenario.apply", parent);
    setup.spec = scenario::paper_2023();
    setup.spec.seed = seed;
    applied = scenario::apply(setup.spec);
    applied.campaign.zone.tld_count = kTldCount;
    applied.campaign.zone.rsa_modulus_bits = kRsaModulusBits;
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

std::vector<measure::ZoneAuditObservation> audit_call(const AuditSetup& setup,
                                                      size_t workers) {
  return setup.campaign->run_zone_audit(setup.spec, setup.clean_samples,
                                        workers);
}

dnssec::ValidationStatus expected_verdict(const AuditUnit& unit) {
  using Status = dnssec::ValidationStatus;
  if (!unit.fault) return Status::Valid;
  switch (unit.fault->kind) {
    case measure::FaultEvent::Kind::ClockSkew: return Status::SignatureNotIncepted;
    case measure::FaultEvent::Kind::Bitflip: return Status::BogusSignature;
    case measure::FaultEvent::Kind::StaleServer: return Status::SignatureExpired;
  }
  return Status::Valid;
}

/// Unit index of each observation: the audit returns its observations
/// stable-sorted by transfer time.
std::vector<size_t> observation_order(const std::vector<AuditUnit>& units) {
  std::vector<size_t> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return units[a].when < units[b].when;
  });
  return order;
}

/// The output check of one audit call: every fault-plan unit lands in its
/// Table 2 class, every clean sample validates. Returns the observation
/// vector's digest, or an empty string (and records why) on failure.
std::string check_audit(const std::vector<AuditUnit>& units,
                        const std::vector<size_t>& order,
                        const std::vector<measure::ZoneAuditObservation>& observations,
                        Report& report) {
  if (observations.size() != units.size()) {
    report.fail(util::format("audit returned %zu observations for %zu units",
                             observations.size(), units.size()));
    return "";
  }
  Digest digest;
  for (size_t k = 0; k < observations.size(); ++k) {
    const measure::ZoneAuditObservation& obs = observations[k];
    const AuditUnit& unit = units[order[k]];
    if (obs.when != unit.when || obs.vp_id != unit.vp.view.vp_id) {
      report.fail(util::format("observation %zu is not unit %zu", k, order[k]));
      return "";
    }
    const dnssec::ValidationStatus expected = expected_verdict(unit);
    if (obs.verdict != expected) {
      report.fail(util::format(
          "unit %zu (vp %u at %lld): verdict %s, expected %s", order[k],
          obs.vp_id, static_cast<long long>(obs.when),
          dnssec::to_string(obs.verdict).c_str(),
          dnssec::to_string(expected).c_str()));
      return "";
    }
    digest.add(obs.vp_id);
    digest.add(static_cast<uint64_t>(obs.table2_vp_id));
    digest.add(static_cast<uint64_t>(obs.root_index));
    digest.add(static_cast<uint64_t>(obs.family));
    digest.add(static_cast<uint64_t>(obs.old_b_address));
    digest.add(static_cast<uint64_t>(obs.when));
    digest.add(obs.soa_serial);
    digest.add(static_cast<uint64_t>(obs.verdict));
    digest.add(static_cast<uint64_t>(obs.zonemd));
    digest.add(static_cast<uint64_t>(obs.affects_all_servers));
    digest.add(obs.note);
  }
  return digest.hex();
}

/// Runs one timed audit call and checks it. Returns its wall time (s).
double timed_audit(const AuditSetup& setup, const RunOptions& options,
                   const std::vector<AuditUnit>& units,
                   const std::vector<size_t>& order, Report& report,
                   std::vector<measure::ZoneAuditObservation>* out = nullptr) {
  const Clock::time_point start = Clock::now();
  std::vector<measure::ZoneAuditObservation> observations =
      audit_call(setup, options.workers);
  const double wall = seconds_since(start);
  ++report.attempted;
  const std::string digest = check_audit(units, order, observations, report);
  if (!digest.empty()) check_digest(options, digest, report);
  if (out) *out = std::move(observations);
  return wall;
}

void percentile_note(Report& report, const std::string& name,
                     const std::vector<double>& samples) {
  report.note(util::format("%s: %zu calls, p50 %.3f, p99 %.3f, max %.3f",
                           name.c_str(), samples.size(),
                           quantile(samples, 0.5), quantile(samples, 0.99),
                           quantile(samples, 1.0)));
}

void run_untraced(const RunOptions& options, bool warm, Report& report) {
  std::vector<measure::FaultEvent> faults;
  std::vector<AuditUnit> units;
  std::vector<size_t> order;
  double setup_rss = 0;
  AuditSetup setup;

  auto prepare_units = [&] {
    const measure::Campaign& campaign = *setup.campaign;
    faults = campaign.fault_plan();
    std::string error;
    units = audit_units(campaign, faults, setup.clean_samples, &error);
    if (units.empty()) report.fail("audit units: " + error);
    order = observation_order(units);
  };

  // A round is one set-up and its calls. audit-cold: one call per round,
  // each on a fresh campaign, until --seconds of timed calls; setup_s is
  // timed over the set-up seed family, a batch before each of the first
  // kMinCalls rounds. audit-warm: kWarmRounds rounds, each a fresh campaign
  // whose caches the set-up fills (setup_s is their median), then called for
  // its share of --seconds. Pooling the calls of several campaigns averages
  // out how one instance settles.
  const size_t rounds = warm ? kWarmRounds : kMaxCalls;
  const double round_seconds = options.seconds / static_cast<double>(kWarmRounds);
  double timed = 0;
  for (size_t round = 0; round < rounds; ++round) {
    if (!warm && round >= kMinCalls && timed >= options.seconds) break;
    setup = AuditSetup{};  // drop the previous set-up first
    if (!warm && round < kMinCalls) {
      time_setup_batch(options.seed, round, kMinCalls, [](uint64_t seed) {
        const Clock::time_point start = Clock::now();
        const AuditSetup family = set_up(seed, false, false);
        return seconds_since(start);
      }, report);
    }
    const Clock::time_point start = Clock::now();
    setup = set_up(options.seed, warm, false);
    if (warm) {
      audit_call(setup, options.workers);  // fills the zone and AXFR caches
      report.setup_samples.push_back(seconds_since(start));
    }
    if (round == 0) {
      setup_rss = current_rss_mb();
      prepare_units();
    }
    double round_timed = 0;
    for (size_t call = 0;
         call == 0 || (warm && (call < kMinCalls || round_timed < round_seconds));
         ++call) {
      reset_peak_rss();
      const double wall = timed_audit(setup, options, units, order, report);
      report.peak_samples.push_back(peak_rss_mb());
      report.run_samples.push_back(wall);
      round_timed += wall;
    }
    timed += round_timed;
  }
  add_end_to_end(report, static_cast<double>(units.size()), setup_rss);
}

using Serials = std::map<uint32_t, util::UnixTime>;

/// The distinct serials the units transfer, each with the first instant that
/// serves it: the transfer time, or a stale server's frozen instant.
Serials distinct_serials(const rss::ZoneAuthority& authority,
                         const std::vector<AuditUnit>& units) {
  Serials serials;
  for (const AuditUnit& unit : units) {
    const util::UnixTime served =
        unit.knobs.server_frozen_at ? *unit.knobs.server_frozen_at : unit.when;
    serials.emplace(authority.serial_at(served), served);
  }
  return serials;
}

/// A replay root span and the wall time of the calls under it, read from an
/// outer clock so it is comparable between a traced and an untraced pass.
struct ReplayRoot {
  uint32_t id = 0;
  double seconds = 0;
};

struct ZoneBuildReplay {
  ReplayRoot root;
  double zone_at_ms = 0;  ///< the builds alone, without the encodes
};

/// The zone builds of `serials`, serially on a fresh cold authority, then
/// their AXFR encodes, under `<prefix>replay.zone_builds`.
ZoneBuildReplay replay_zone_builds(const measure::Campaign& campaign,
                              const Serials& serials, const std::string& prefix,
                              SpanLog& log, Report& report) {
  rss::ZoneAuthority cold(campaign.catalog(), campaign.authority().config());
  ZoneBuildReplay replay;
  ReplayRoot& root = replay.root;
  double& zone_at_ms = replay.zone_at_ms;
  double axfr_encode_ms = 0;
  const Clock::time_point start = Clock::now();
  root.id = log.open(prefix + "replay.zone_builds", 0);
  for (const auto& [serial, when] : serials) {
    const uint32_t span = log.open("rss.zone_at", root.id);
    cold.zone_at(when);
    log.close(span);
    zone_at_ms += log.duration_ms(span);
  }
  for (const auto& [serial, when] : serials) {
    const uint32_t span = log.open("dns.axfr_encode", root.id);
    cold.axfr_stream_at(when);
    log.close(span);
    axfr_encode_ms += log.duration_ms(span);
  }
  log.close(root.id);
  root.seconds = seconds_since(start);
  report.add("rss.zone_at_ms", zone_at_ms, "ms");
  report.add("dns.axfr_encode_ms", axfr_encode_ms, "ms");
  return replay;
}

struct TransferReplay {
  ReplayRoot root;
  std::vector<dnssec::ValidationStatus> verdicts;  ///< unit order
  std::vector<obs::SloSample> samples;
  /// (root, family) each transfer was routed as.
  std::vector<std::pair<uint32_t, util::IpFamily>> routes;
};

/// Per unit, on `campaign` with the zone and AXFR caches of `serials` filled
/// first: Prober::probe, Zone::from_axfr and validate_zone, under
/// `<prefix>replay.transfers`.
TransferReplay replay_transfers(const measure::Campaign& campaign,
                                const std::vector<AuditUnit>& units,
                                const Serials& serials, const std::string& prefix,
                                SpanLog& log, Report& report) {
  const rss::ZoneAuthority& authority = campaign.authority();
  for (const auto& [serial, when] : serials) {
    authority.zone_at(when);
    authority.axfr_stream_at(when);
  }
  const measure::Prober prober(authority, campaign.catalog(), campaign.router(),
                               campaign.config().transport);
  const dnssec::TrustAnchors anchors = authority.trust_anchors();
  std::vector<double> probe_us, from_axfr_us, validate_ms;
  TransferReplay replay;
  const Clock::time_point start = Clock::now();
  replay.root.id = log.open(prefix + "replay.transfers", 0);
  for (const AuditUnit& unit : units) {
    uint32_t span = log.open("measure.probe", replay.root.id);
    const measure::ProbeRecord probe =
        prober.probe(unit.vp, unit.address, unit.when, unit.round, unit.knobs);
    log.close(span);
    probe_us.push_back(log.duration_ms(span) * 1e3);

    dnssec::ValidationStatus verdict = dnssec::ValidationStatus::Valid;
    const bool transferred = probe.axfr && !probe.axfr->refused;
    if (transferred) {
      span = log.open("dns.zone_from_axfr", replay.root.id);
      const std::optional<dns::Zone> zone =
          dns::Zone::from_axfr(probe.axfr->records, dns::Name());
      log.close(span);
      from_axfr_us.push_back(log.duration_ms(span) * 1e3);
      if (!zone) {
        verdict = dnssec::ValidationStatus::BogusSignature;
      } else {
        span = log.open("dnssec.validate_zone", replay.root.id);
        verdict = dnssec::validate_zone(*zone, anchors, probe.vp_time)
                      .dominant_failure();
        log.close(span);
        validate_ms.push_back(log.duration_ms(span));
      }
    }
    replay.verdicts.push_back(verdict);
    replay.routes.emplace_back(static_cast<uint32_t>(std::max(0, probe.root_index)),
                               probe.family);

    obs::SloSample sample;
    sample.root = static_cast<uint8_t>(std::max(0, probe.root_index));
    sample.v6 = probe.family == util::IpFamily::V6;
    sample.when = unit.when;
    sample.ok = transferred;
    replay.samples.push_back(sample);
    if (transferred) {
      sample.kind = obs::SloSample::Kind::Latency;
      sample.value = probe.rtt_ms;
      replay.samples.push_back(sample);
    }
  }
  log.close(replay.root.id);
  replay.root.seconds = seconds_since(start);
  report.add("measure.probe_us.p50", quantile(probe_us, 0.5), "us");
  report.add("measure.probe_us.p99", quantile(probe_us, 0.99), "us");
  report.add("dns.zone_from_axfr_us", median(from_axfr_us), "us");
  report.add("dnssec.validate_zone_ms.p50", quantile(validate_ms, 0.5), "ms");
  report.add("dnssec.validate_zone_ms.p99", quantile(validate_ms, 0.99), "ms");
  if (log.enabled()) {
    percentile_note(report, "measure.probe_us", probe_us);
    percentile_note(report, "dnssec.validate_zone_ms", validate_ms);
  }
  return replay;
}

void run_traced(const RunOptions& options, bool warm, Report& report) {
  SpanLog log;
  // Set-up: the timed layers of a user's set-up.
  const uint32_t setup_root = log.open("setup", 0);
  AuditSetup plain = set_up(options.seed, warm, false, &log, setup_root);
  report.add("scenario.apply_ms", plain.apply_s * 1e3, "ms");
  report.add("measure.campaign_build_ms", plain.build_s * 1e3, "ms");
  if (warm) {
    ScopedSpan span(&log, "measure.run_zone_audit", setup_root);
    audit_call(plain, options.workers);
  }
  log.close(setup_root);

  std::vector<measure::FaultEvent> faults = plain.campaign->fault_plan();
  std::string error;
  const std::vector<AuditUnit> units =
      audit_units(*plain.campaign, faults, plain.clean_samples, &error);
  if (units.empty()) {
    report.fail("audit units: " + error);
    return;
  }
  const std::vector<size_t> order = observation_order(units);

  // Untimed calls first, so both timed calls below run in a warmed-up
  // process (heap grown, code paged in): one on a fresh campaign for
  // audit-cold; kMinCalls on the filled campaign for audit-warm, whose first
  // calls after the fill run several times slower than the settled ones
  // (0.43-0.48 s against 0.11-0.14 s on seed 42).
  const auto warm_up = [&](const AuditSetup& setup) {
    for (size_t call = 0; warm && call < kMinCalls; ++call)
      audit_call(setup, options.workers);
  };
  if (warm)
    warm_up(plain);
  else
    audit_call(set_up(options.seed, warm, false), options.workers);

  // The untraced call (null obs sink), with the process CPU it burns.
  double untraced_s = 0;
  double cpu_s = 0;
  {
    const uint32_t root = log.open("run.untraced", 0);
    const double cpu_start = process_cpu_seconds();
    untraced_s = timed_audit(plain, options, units, order, report);
    cpu_s = process_cpu_seconds() - cpu_start;
    log.close(root);
  }
  plain = AuditSetup{};

  // The same call on a campaign recording into an obs::Recorder: the
  // program's own counters for the per-layer metrics, and what that
  // recording costs against the call above.
  AuditSetup recorded = set_up(options.seed, warm, true);
  if (warm) audit_call(recorded, options.workers);  // the cache fill
  warm_up(recorded);
  const CounterSnapshot before = CounterSnapshot::take(recorded.recorder->metrics());
  std::vector<measure::ZoneAuditObservation> observations;
  double recorded_s = 0;
  {
    const uint32_t root = log.open("run.recorded", 0);
    recorded_s = timed_audit(recorded, options, units, order, report, &observations);
    log.close(root);
  }
  CounterSnapshot::take(recorded.recorder->metrics()).minus(before).report(report);
  report.add("trace.recorder_overhead_s", recorded_s - untraced_s, "s");
  report.add("exec.busy_ratio",
             cpu_s / (untraced_s * static_cast<double>(options.workers)),
             "ratio");
  const measure::Campaign& campaign = *recorded.campaign;

  // The tracing overhead: the replay's workload roots (a cold call builds
  // its zones and transfers them, a warm one only transfers) with spans and
  // call timers off, then traced. A first untraced pass warms the replay's
  // code and heap, so the timed passes both run warm.
  const Serials serials = distinct_serials(campaign.authority(), units);
  const auto replay_untraced = [&] {
    SpanLog off(false);
    Report discarded;
    double seconds = 0;
    if (!warm)
      seconds += replay_zone_builds(campaign, serials, "", off, discarded).root.seconds;
    return seconds +
           replay_transfers(campaign, units, serials, "", off, discarded).root.seconds;
  };
  replay_untraced();
  const double replay_untraced_s = replay_untraced();

  // Layer replay over the same units; its verdicts must match the audit's.
  AuditPathTrace path =
      trace_audit_path(campaign, units, options.workers, true, "", log, report);
  for (size_t k = 0; k < observations.size() && k < order.size(); ++k) {
    if (path.verdicts[order[k]] != observations[k].verdict) {
      report.fail(util::format("replayed verdict of unit %zu differs", order[k]));
      break;
    }
  }
  const double replay_traced_s =
      path.transfers_s + (warm ? 0.0 : path.zone_builds_s);
  report.add("trace.run_s", replay_traced_s, "s");
  report.add("trace.untraced_run_s", replay_untraced_s, "s");
  report.add("trace.overhead_s", replay_traced_s - replay_untraced_s, "s");
  report.note(util::format(
      "replay: %zu transfers, %zu distinct serials; serial replay %.3f s traced, "
      "%.3f s untraced; the call at %zu workers: %.3f s",
      units.size(), path.serials, replay_traced_s, replay_untraced_s,
      options.workers, untraced_s));

  // The audit never touches the SLO plane: the obs layer is measured on a
  // bypass probe of the replay's own transfer samples.
  {
    const uint32_t root = log.open("bypass.obs", 0);
    SloReplay slo(log, root);
    slo.add_bucket(path.samples, root);
    slo.finish(obs::SloThresholds{}, {}, "", report);
    log.close(root);
  }
  std::vector<uint32_t> workload_roots{path.transfers_root};
  if (!warm) workload_roots.push_back(path.zone_builds_root);
  write_trace(options, log, workload_roots, report);
}

}  // namespace

std::vector<AuditUnit> audit_units(const measure::Campaign& campaign,
                                   const std::vector<measure::FaultEvent>& faults,
                                   size_t clean_samples, std::string* error) {
  const auto& vps = campaign.vantage_points();
  const auto& catalog = campaign.catalog();
  const auto& schedule = campaign.schedule();
  const util::Rng audit_rng = util::Rng(campaign.config().seed).fork("zone-audit");
  std::vector<AuditUnit> units;
  units.reserve(faults.size() + clean_samples);

  for (size_t i = 0; i < faults.size(); ++i) {
    const measure::FaultEvent& event = faults[i];
    auto vp = std::find_if(vps.begin(), vps.end(), [&](const auto& candidate) {
      return candidate.view.vp_id == event.vp_id;
    });
    if (vp == vps.end()) {
      if (error) *error = util::format("fault %zu names unknown vp %u", i, event.vp_id);
      return {};
    }
    AuditUnit unit;
    unit.fault = &event;
    unit.vp = *vp;
    if (event.root_index < 0) {
      unit.address = catalog.server(10).ipv4;  // k.root stands for the round
    } else if (event.old_b_address) {
      unit.address = event.family == util::IpFamily::V4
                         ? catalog.renumbering().old_ipv4
                         : catalog.renumbering().old_ipv6;
    } else {
      const auto& server = catalog.server(static_cast<size_t>(event.root_index));
      unit.address =
          event.family == util::IpFamily::V4 ? server.ipv4 : server.ipv6;
    }
    if (event.kind == measure::FaultEvent::Kind::ClockSkew)
      unit.vp.clock_offset_s = event.clock_offset_s;
    if (event.kind == measure::FaultEvent::Kind::Bitflip) {
      unit.knobs.inject_bitflip = true;
      unit.knobs.bitflip_seed =
          audit_rng.fork(util::format("bitflip-%zu", i)).next();
      unit.knobs.bitflip_prefer_signed = true;
    }
    if (event.kind == measure::FaultEvent::Kind::StaleServer)
      unit.knobs.server_frozen_at = event.server_frozen_at;
    unit.when = event.when;
    unit.round = schedule.round_at(event.when);
    units.push_back(std::move(unit));
  }

  const auto addresses = catalog.service_addresses(schedule.config().end);
  for (size_t sample = 0; sample < clean_samples; ++sample) {
    util::Rng rng = audit_rng.fork(util::format("clean-%zu", sample));
    AuditUnit unit;
    unit.vp = vps[rng.uniform(vps.size())];
    unit.round = rng.uniform(schedule.round_count());
    unit.address = addresses[rng.uniform(addresses.size())];
    unit.when = schedule.round_time(unit.round);
    units.push_back(std::move(unit));
  }
  return units;
}

AuditPathTrace trace_audit_path(const measure::Campaign& campaign,
                                const std::vector<AuditUnit>& units,
                                size_t workers, bool netsim_metrics,
                                const std::string& prefix, SpanLog& log,
                                Report& report) {
  const rss::ZoneAuthority& authority = campaign.authority();
  const Serials serials = distinct_serials(authority, units);
  AuditPathTrace trace;
  trace.serials = serials.size();

  // Stand-alone layer probes: the zone builds fanned over the exec pool on a
  // cold authority, and RSA signing at the zone's modulus.
  const uint32_t probe_root = log.open(prefix + "layer-probes", 0);
  double parallel_ms = 0;
  {
    rss::ZoneAuthority cold(campaign.catalog(), authority.config());
    std::vector<util::UnixTime> instants;
    for (const auto& entry : serials) instants.push_back(entry.second);
    const uint32_t pool = log.open("exec.parallel_for", probe_root);
    exec::parallel_for(instants.size(), workers, [&](size_t unit, size_t) {
      ScopedSpan span(&log, "rss.zone_at_parallel", pool);
      cold.zone_at(instants[unit]);
    });
    log.close(pool);
    parallel_ms = log.duration_ms(pool);
  }
  {
    util::Rng rng = util::Rng(campaign.config().seed).fork("rootbench-rsa");
    const dnssec::SigningKey key =
        dnssec::make_zsk(rng, authority.config().rsa_modulus_bits);
    const crypto::RsaSignContext context(key.rsa);
    CallTimer signs(log, "crypto.rsa_sign");
    std::vector<uint8_t> message(128);
    for (size_t i = 0; i < kSignProbes; ++i) {
      for (uint8_t& byte : message) byte = static_cast<uint8_t>(rng.next());
      signs.time([&] { return context.sign(crypto::RsaHash::Sha256, message); });
    }
    signs.flush(log, probe_root);
    report.add("crypto.rsa_sign_us", median(signs.samples_us()), "us");
  }
  log.close(probe_root);

  // The workload's own calls: the zone builds and encodes on a cold
  // authority, then the transfers on the campaign with its caches filled.
  const ZoneBuildReplay builds =
      replay_zone_builds(campaign, serials, prefix, log, report);
  trace.zone_builds_root = builds.root.id;
  trace.zone_builds_s = builds.root.seconds;
  report.add("rss.zone_at_parallel_speedup", builds.zone_at_ms / parallel_ms, "x");
  TransferReplay transfers =
      replay_transfers(campaign, units, serials, prefix, log, report);
  trace.transfers_root = transfers.root.id;
  trace.transfers_s = transfers.root.seconds;
  trace.verdicts = std::move(transfers.verdicts);
  trace.samples = std::move(transfers.samples);

  if (netsim_metrics) {
    // The route selection each transfer made, and the fallback lookup the
    // SLO monitor would make for it (the audit itself never does).
    CallTimer route_at(log, "netsim.route_at");
    CallTimer announced(log, "netsim.announced_routes");
    const uint32_t root_span = log.open(prefix + "netsim-probes", 0);
    for (size_t i = 0; i < units.size(); ++i) {
      const AuditUnit& unit = units[i];
      const auto [root, family] = transfers.routes[i];
      route_at.time([&] {
        return campaign.router().route_at(unit.vp.view, root, family, unit.round);
      });
      announced.time([&] {
        return campaign.router().announced_routes(unit.vp.view, root, family,
                                                  kFallbackRoutes);
      });
    }
    route_at.flush(log, root_span);
    announced.flush(log, root_span);
    log.close(root_span);
    report.add("netsim.route_at_us.p50", quantile(route_at.samples_us(), 0.5), "us");
    report.add("netsim.route_at_us.p99", quantile(route_at.samples_us(), 0.99), "us");
    report.add("netsim.announced_routes_us", median(announced.samples_us()), "us");
    percentile_note(report, "netsim.route_at_us", route_at.samples_us());
  }
  return trace;
}

Report run_audit(const RunOptions& options, bool warm) {
  Report report;
  if (options.trace)
    run_traced(options, warm, report);
  else
    run_untraced(options, warm, report);
  return report;
}

}  // namespace rootbench
