// The three workloads and the per-layer replays their traced runs share.
//
// Untraced runs time only the public entry points a user calls
// (Campaign::run_zone_audit, Campaign::run_slo_timeline). The traced run then
// replays the workload's own calls into each layer's public functions from
// this file set, one span per call, so every layer's share of the work is
// measured from outside the program.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "measure/campaign.h"
#include "obs/incident.h"
#include "obs/slo.h"
#include "support.h"

namespace rootbench {

using namespace rootsim;

/// `audit-cold` (warm = false) and `audit-warm` (warm = true).
Report run_audit(const RunOptions& options, bool warm);
/// `slo-froot`.
Report run_slo(const RunOptions& options);

/// One zone-audit work unit as Campaign::run_zone_audit executes it:
/// rebuilt here from the campaign's seed with the same per-unit RNG forks,
/// so the traced run can replay exactly the audit's calls.
struct AuditUnit {
  const measure::FaultEvent* fault = nullptr;  ///< null = clean sample
  measure::VantagePoint vp;
  util::IpAddress address;
  util::UnixTime when = 0;
  uint64_t round = 0;
  measure::Prober::FaultKnobs knobs;
};

/// The audit's units: every fault of `faults`, then `clean_samples` clean
/// transfers. Empty (and `error` set) if a fault names an unknown VP.
std::vector<AuditUnit> audit_units(const measure::Campaign& campaign,
                                   const std::vector<measure::FaultEvent>& faults,
                                   size_t clean_samples, std::string* error);

/// Traced replay of the audit path over `units`: the zone build sweep on a
/// cold authority (serial, then over exec::parallel_for on a second one),
/// the AXFR encodes, and per unit Prober::probe + Zone::from_axfr +
/// validate_zone on `campaign` (whose caches are filled first), plus
/// AnycastRouter::route_at / announced_routes per unit and an RSA signing
/// probe. Adds the audit-path per-layer metrics to `report` (the netsim ones
/// only with `netsim_metrics`). Spans go under the roots
/// `<prefix>replay.zone_builds` (serial builds and encodes),
/// `<prefix>replay.transfers` (per-transfer calls), `<prefix>layer-probes`
/// (parallel builds, signing) and `<prefix>netsim-probes`.
struct AuditPathTrace {
  std::vector<dnssec::ValidationStatus> verdicts;  ///< unit order
  /// One availability (and, if answered, latency) sample per transfer.
  std::vector<obs::SloSample> samples;
  size_t serials = 0;
  uint32_t zone_builds_root = 0;
  uint32_t transfers_root = 0;
  /// Wall time of the calls under each of the two replay roots (s).
  double zone_builds_s = 0;
  double transfers_s = 0;
};
AuditPathTrace trace_audit_path(const measure::Campaign& campaign,
                                const std::vector<AuditUnit>& units,
                                size_t workers, bool netsim_metrics,
                                const std::string& prefix, SpanLog& log,
                                Report& report);

/// Traced replay of the SLO aggregation path: samples arrive one bucket at a
/// time, are recorded into a fresh per-bucket SloCollector shard and folded
/// into the main collector (as exec::ObsShards does), then the windows are
/// swept and the incident tracker run. The main collector's memory is the
/// heap freeing it gives back.
class SloReplay {
 public:
  /// Window-sweep and tracker spans go under `parent`.
  SloReplay(SpanLog& log, uint32_t parent);
  /// Record and merge spans go under `parent`.
  void add_bucket(const std::vector<obs::SloSample>& samples, uint32_t parent);
  /// Sweeps windows, runs the tracker, frees the collector and adds the obs.*
  /// metrics. Returns the slo.jsonl + incidents.jsonl exports the replay
  /// produced. Call once, after the last add_bucket().
  std::pair<std::string, std::string> finish(
      const obs::SloThresholds& thresholds,
      const std::vector<obs::CauseHint>& hints, const std::string& scenario,
      Report& report);

 private:
  SpanLog& log_;
  uint32_t parent_;
  std::unique_ptr<obs::SloCollector> main_;  // not movable: holds a mutex
  int64_t record_ns_ = 0;
  uint64_t records_ = 0;
  int64_t merge_ns_ = 0;
};

/// Digest of the slo.jsonl and incidents.jsonl exports.
std::string slo_digest(const std::string& slo_jsonl,
                       const std::string& incidents_jsonl);

/// Counter deltas of one traced call (netsim, rss, dnssec counters) as
/// per-layer metrics.
struct CounterSnapshot {
  uint64_t zones_built = 0;
  uint64_t sig_hits = 0;
  uint64_t sig_misses = 0;
  uint64_t signatures_checked = 0;
  uint64_t route_selections = 0;
  uint64_t exchanges = 0;
  uint64_t wire_bytes = 0;

  static CounterSnapshot take(const obs::MetricsRegistry& metrics);
  CounterSnapshot minus(const CounterSnapshot& before) const;
  void report(Report& report) const;
};

/// Set-ups (scenario::apply + Campaign constructor) whose median is setup_s
/// on audit-cold and slo-froot, one on each seed of setup_seed(). RSA key
/// generation makes a set-up's time depend on its seed (0.02-0.15 s across
/// seeds 1-9), so a median over one seed would move with the seed.
constexpr size_t kSetupSeeds = 64;
/// The index-th seed of the set-up family of `seed`; index 0 is `seed`.
uint64_t setup_seed(uint64_t seed, size_t index);
/// Times batch `batch` of `batches` of the set-up family of `seed` into
/// report.setup_samples; `timed_set_up(seed)` makes one set-up and returns
/// its time. Called before each of a run's first `batches` calls, it spreads
/// the set-ups over the run, so their median does not rest on one moment of
/// a noisy host.
void time_setup_batch(uint64_t seed, size_t batch, size_t batches,
                      const std::function<double(uint64_t)>& timed_set_up,
                      Report& report);

/// The end-to-end metrics every workload reports, from its per-call samples.
void add_end_to_end(Report& report, double work_per_call, double setup_rss_mb);

/// Checks a call's output digest against the run's first call (kept in
/// report.digest) and against the recorded reference
/// (RunOptions::expected_digest). False = failed.
bool check_digest(const RunOptions& options, const std::string& digest,
                  Report& report);

/// Writes `<out_dir>/trace-<workload>-seed<seed>.json` with the span log and
/// each layer's share of the self time under `workload_roots`, the roots
/// whose calls make up the timed workload; notes the largest shares.
void write_trace(const RunOptions& options, const SpanLog& log,
                 const std::vector<uint32_t>& workload_roots, Report& report);

}  // namespace rootbench
