#include "measure/campaign.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "exec/engine.h"
#include "exec/profiler.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::measure {

namespace {

const char* fault_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::ClockSkew: return "clock-skew";
    case FaultEvent::Kind::Bitflip: return "bitflip";
    case FaultEvent::Kind::StaleServer: return "stale-server";
  }
  return "?";
}

// Wall-clock phase timing feeds a *volatile* gauge: excluded from the
// deterministic exports, visible when a report is captured with
// include_volatile = true.
using WallClock = std::chrono::steady_clock;

void record_phase_wall(obs::Obs obs, const char* phase,
                       WallClock::time_point start) {
  if (!obs.metrics) return;
  double ms =
      std::chrono::duration<double, std::milli>(WallClock::now() - start).count();
  obs.metrics
      ->gauge("campaign.phase_wall_ms", {{"phase", phase}},
              /*volatile_metric=*/true)
      .add(ms);
}

// Shrinks the VP set proportionally per region (for fast unit tests).
std::vector<VantagePoint> scale_vps(std::vector<VantagePoint> vps, double scale) {
  if (scale >= 1.0) return vps;
  std::vector<VantagePoint> kept;
  std::array<int, util::kRegionCount> seen{}, budget{};
  for (const RegionQuota& quota : table3_quotas())
    budget[static_cast<size_t>(quota.region)] = std::max(
        1, static_cast<int>(quota.vantage_points * scale));
  for (auto& vp : vps) {
    size_t region = static_cast<size_t>(vp.view.region);
    if (seen[region] < budget[region]) {
      ++seen[region];
      kept.push_back(std::move(vp));
    }
  }
  return kept;
}

}  // namespace

Campaign::Campaign(CampaignConfig config, obs::Obs obs)
    : config_(std::move(config)), obs_(obs), schedule_(config_.schedule) {
  config_.topology.seed = config_.seed;
  config_.router.seed = config_.seed;
  config_.vantage.seed = config_.seed;
  config_.zone.seed = config_.seed;
  config_.transport.seed = config_.seed;
  config_.router.campaign_rounds = schedule_.round_count();
  if (config_.router.churn == std::array<netsim::ChurnSpec, 13>{})
    config_.router.churn = netsim::default_churn_specs();

  // The catalog's renumbering instant is scenario data: the zone authority
  // flips b's records and the priming hints cross over at the same time.
  catalog_.set_renumbering_time(config_.zone.broot_change);

  authority_ = std::make_unique<rss::ZoneAuthority>(catalog_, config_.zone, obs_);
  std::vector<netsim::DeploymentSpec> deployments =
      catalog_.all_deployment_specs();
  for (const auto& override_spec : config_.deployment_overrides) {
    if (override_spec.root_index < 0 ||
        static_cast<size_t>(override_spec.root_index) >= deployments.size())
      util::fatal("Campaign: a deployment override names root %d, outside "
                  "0..%zu",
                  override_spec.root_index, deployments.size() - 1);
    // Every probe routes to the letter through a global site: each VP
    // reaches all of them, but only the local sites visible to it.
    if (std::none_of(override_spec.global_sites.begin(),
                     override_spec.global_sites.end(),
                     [](int count) { return count > 0; }))
      util::fatal("Campaign: the deployment override of root %d has no global "
                  "site",
                  override_spec.root_index);
    auto& spec = deployments[static_cast<size_t>(override_spec.root_index)];
    spec.global_sites = override_spec.global_sites;
    spec.local_sites = override_spec.local_sites;
  }
  topology_ = netsim::build_topology(config_.topology, deployments,
                                     rss::paper_detour_rules());
  router_ = std::make_unique<netsim::AnycastRouter>(topology_, config_.router,
                                                    obs_);
  vps_ = scale_vps(generate_vantage_points(topology_, config_.vantage),
                   config_.vp_scale);
  prober_ = std::make_unique<Prober>(*authority_, catalog_, *router_,
                                     config_.transport, obs_);
  faults_ = config_.fault_plan;
  if (obs_.metrics) {
    obs_.metrics->gauge("campaign.vantage_points").set(
        static_cast<double>(vps_.size()));
    obs_.metrics->gauge("campaign.rounds").set(
        static_cast<double>(schedule_.round_count()));
  }
}

std::vector<ZoneAuditObservation> Campaign::run_zone_audit(
    size_t clean_samples, size_t workers) const {
  return run_zone_audit_with(faults_, clean_samples, workers);
}

std::vector<ZoneAuditObservation> Campaign::run_zone_audit_with(
    const std::vector<FaultEvent>& faults, size_t clean_samples,
    size_t workers) const {
  dnssec::TrustAnchors anchors = authority_->trust_anchors();
  const util::Rng audit_rng = util::Rng(config_.seed).fork("zone-audit");

  // Stable vp_id -> index lookup. The fault plan names full-campaign VP ids;
  // a scaled-down VP set (vp_scale < 1) may not contain them, in which case
  // each missing planned id gets its own stand-in VP. The assignment is
  // hash-seeded with linear probing over a taken map, so — unlike the modulo
  // aliasing it replaces — two distinct planned ids never collapse onto the
  // same stand-in (as long as the scaled set has enough VPs), and it only
  // depends on (fault plan, VP set), never on scheduling.
  std::unordered_map<uint32_t, size_t> vp_index;
  vp_index.reserve(vps_.size());
  for (size_t i = 0; i < vps_.size(); ++i) vp_index.emplace(vps_[i].view.vp_id, i);
  std::unordered_map<uint32_t, size_t> fallback_base;
  {
    std::vector<uint32_t> missing;
    for (const FaultEvent& event : faults)
      if (!vp_index.count(event.vp_id)) missing.push_back(event.vp_id);
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
    std::vector<bool> taken(vps_.size(), false);
    size_t assigned = 0;
    for (uint32_t vp_id : missing) {
      if (assigned == vps_.size()) {
        // More missing ids than VPs: reuse is unavoidable; start over.
        taken.assign(vps_.size(), false);
        assigned = 0;
      }
      uint64_t mix = vp_id;
      size_t slot = util::splitmix64(mix) % vps_.size();
      while (taken[slot]) slot = (slot + 1) % vps_.size();
      taken[slot] = true;
      ++assigned;
      fallback_base.emplace(vp_id, slot);
    }
  }
  auto vp_by_id = [&](uint32_t vp_id, bool& fallback) -> const VantagePoint& {
    auto it = vp_index.find(vp_id);
    fallback = it == vp_index.end();
    return fallback ? vps_[fallback_base.at(vp_id)] : vps_[it->second];
  };

  // Takes the probe's records: the zone is built by moving them.
  auto validate_probe = [&](ProbeRecord& probe, const FaultEvent* fault,
                            const obs::Obs& sink) -> ZoneAuditObservation {
    ZoneAuditObservation obs;
    obs.vp_id = probe.vp_id;
    obs.table2_vp_id = fault ? fault->table2_vp_id : 0;
    obs.root_index = probe.root_index;
    obs.family = probe.family;
    obs.old_b_address = probe.old_b_address;
    obs.when = probe.true_time;
    // Nests the verdict under the probe span that transferred the zone.
    auto trace_verdict = [&](const ZoneAuditObservation& verdict) {
      if (!sink.tracer) return;
      std::vector<obs::TraceAttr> attrs{
          {"verdict", dnssec::to_string(verdict.verdict)},
          {"zonemd", dnssec::to_string(verdict.zonemd)}};
      if (!verdict.note.empty()) attrs.push_back({"note", verdict.note});
      sink.tracer->event(probe.trace_span, "validate", probe.true_time,
                         std::move(attrs));
    };
    if (!probe.axfr || probe.axfr->refused) {
      // A transfer that never arrived: refused by the server, or — on lossy
      // / TCP-refusing transport conditions — never established at all.
      obs.note = probe.axfr && probe.axfr->timed_out ? "axfr-timeout"
                                                     : "axfr-refused";
      trace_verdict(obs);
      return obs;
    }
    obs.soa_serial = probe.axfr->soa_serial;
    auto zone = dns::Zone::from_axfr(std::move(probe.axfr->records), dns::Name());
    if (!zone) {
      // Corruption broke the framing itself (possible if the SOA owner name
      // got hit); report as bogus.
      obs.verdict = dnssec::ValidationStatus::BogusSignature;
      obs.note = "axfr-framing-broken: " + probe.axfr->bitflip_note;
      trace_verdict(obs);
      return obs;
    }
    // Validation uses the VP's own clock — exactly how skew turns into
    // "signature not incepted" verdicts.
    auto result = dnssec::validate_zone(*zone, anchors, probe.vp_time, sink);
    obs.verdict = result.dominant_failure();
    obs.zonemd = result.zonemd;
    if (probe.axfr->bitflip_injected) obs.note = probe.axfr->bitflip_note;
    trace_verdict(obs);
    return obs;
  };

  // One work unit per fault event plus one per clean sample. Units are
  // slot-addressed and seeded by index, so the observation vector is the
  // same for every worker count; per-unit obs shards merged in unit order
  // keep the metric/trace exports byte-identical too — no matter which
  // worker the scheduler hands a unit to, or in what order.
  const size_t fault_count = faults.size();
  const size_t total_units = fault_count + clean_samples;
  workers = std::max<size_t>(1, std::min(exec::resolve_workers(workers),
                                         std::max<size_t>(total_units, 1)));
  exec::ObsShards shards(obs_, total_units);
  std::vector<ZoneAuditObservation> observations(total_units);
  // Hoisted out of the sampling loop: the address set is time-invariant for
  // the fixed `end` snapshot and each unit needs only a reference.
  const auto addresses = catalog_.service_addresses(schedule_.config().end);
  const auto& renumbering = catalog_.renumbering();

  // ROOTSIM_PROFILE turns on the exec-pool profiler: per-unit wall spans and
  // the worker imbalance report land in PROF_exec_audit.json (or the knob's
  // value as a path). Profiling never touches the deterministic outputs —
  // nullptr takes the exact unprofiled path.
  exec::Profiler profiler;
  exec::Profiler* prof =
      exec::Profiler::enabled_by_env() ? &profiler : nullptr;

  WallClock::time_point phase_start = WallClock::now();
  exec::parallel_for(total_units, workers, [&](size_t unit, size_t) {
    // Each unit builds its own Prober (and Transport) on its obs shard; an
    // attached flight recorder is shared by every unit. One config copy is
    // noise next to the unit's ~48 exchanges and full validation.
    obs::Obs sink = shards.shard(unit);
    const Prober prober(*authority_, catalog_, *router_, config_.transport,
                        sink);
    if (unit < fault_count) {
      // Planned fault event: full-fidelity probe with the fault knobs set.
      const FaultEvent& event = faults[unit];
      if (sink.metrics)
        sink.count("campaign.fault_events",
                   {{"kind", fault_kind_name(event.kind)}});
      util::IpAddress address;
      const bool all_servers = event.root_index < 0;
      if (all_servers) {
        // "all servers": the VP's whole round is affected (clock skew). One
        // representative transfer per event stands for the round; Table 2
        // counts zone files, not addresses.
        address = catalog_.server(10).ipv4;  // k.root
      } else if (event.old_b_address) {
        address = event.family == util::IpFamily::V4 ? renumbering.old_ipv4
                                                     : renumbering.old_ipv6;
      } else {
        const auto& server =
            catalog_.server(static_cast<size_t>(event.root_index));
        address = event.family == util::IpFamily::V4 ? server.ipv4
                                                     : server.ipv6;
      }
      bool vp_fallback = false;
      VantagePoint vp = vp_by_id(event.vp_id, vp_fallback);
      uint32_t stand_in_vp_id = vp.view.vp_id;
      vp.view.vp_id = event.vp_id;  // keep the plan's VP identity
      if (event.kind == FaultEvent::Kind::ClockSkew)
        vp.clock_offset_s = event.clock_offset_s;
      Prober::FaultKnobs knobs;
      if (event.kind == FaultEvent::Kind::Bitflip) {
        knobs.inject_bitflip = true;
        // Seeded by unit index, not by a shared sequential stream: every
        // unit's draw is independent of scheduling.
        knobs.bitflip_seed =
            audit_rng.fork(util::format("bitflip-%zu", unit)).next();
        knobs.bitflip_prefer_signed = true;  // the detected subset, as in §7
      }
      if (event.kind == FaultEvent::Kind::StaleServer)
        knobs.server_frozen_at = event.server_frozen_at;
      ProbeRecord probe = prober.probe(vp, address, event.when,
                                       schedule_.round_at(event.when), knobs);
      if (prof) prof->add_unit_sim_ms(unit, probe.transport.time_ms);
      ZoneAuditObservation obs = validate_probe(probe, &event, sink);
      obs.affects_all_servers = all_servers;
      if (vp_fallback && obs.note != "axfr-refused" &&
          obs.note != "axfr-timeout" &&
          !util::starts_with(obs.note, "axfr-framing-broken")) {
        // Annotate the aliasing so Table 2 rows from scaled-down test
        // configs are recognizably approximate. Skip the note on the
        // refused/broken classes: downstream reconciliation matches those
        // verbatim.
        if (!obs.note.empty()) obs.note += "; ";
        obs.note += util::format(
            "vp-fallback: planned vp %u not in scaled set (stand-in vp %u)",
            event.vp_id, stand_in_vp_id);
      }
      observations[unit] = std::move(obs);
    } else {
      // Clean transfer sampled across the campaign and the address set.
      const size_t sample = unit - fault_count;
      util::Rng rng = audit_rng.fork(util::format("clean-%zu", sample));
      const VantagePoint& vp = vps_[rng.uniform(vps_.size())];
      size_t round = rng.uniform(schedule_.round_count());
      const auto& address = addresses[rng.uniform(addresses.size())];
      ProbeRecord probe =
          prober.probe(vp, address, schedule_.round_time(round), round, {});
      if (prof) prof->add_unit_sim_ms(unit, probe.transport.time_ms);
      observations[unit] = validate_probe(probe, nullptr, sink);
    }
  }, prof);
  shards.merge();
  if (prof) prof->write(exec::Profiler::env_output_path());
  if (obs_.metrics) {
    obs_.count("campaign.clean_samples", clean_samples);
    // Volatile: the worker count is an execution detail, not part of the
    // deterministic export surface.
    obs_.metrics
        ->gauge("campaign.audit_workers", {}, /*volatile_metric=*/true)
        .set(static_cast<double>(workers));
  }
  record_phase_wall(obs_, "zone-audit", phase_start);

  std::stable_sort(
      observations.begin(), observations.end(),
      [](const ZoneAuditObservation& a, const ZoneAuditObservation& b) {
        return a.when < b.when;
      });
  return observations;
}

}  // namespace rootsim::measure
