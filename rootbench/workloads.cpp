// Helpers the workloads share: end-to-end metrics, output digests, program
// counters of the traced call, and the span file.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace rootbench {

CounterSnapshot CounterSnapshot::take(const obs::MetricsRegistry& metrics) {
  CounterSnapshot snapshot;
  snapshot.zones_built = metrics.counter_total("rss.zones_built");
  snapshot.sig_hits = metrics.counter_total("rss.sig_cache.hits");
  snapshot.sig_misses = metrics.counter_total("rss.sig_cache.misses");
  snapshot.signatures_checked =
      metrics.counter_total("dnssec.signatures_checked");
  snapshot.route_selections = metrics.counter_total("netsim.route_selections");
  snapshot.exchanges = metrics.counter_total("transport.exchanges");
  snapshot.wire_bytes = metrics.counter_total("transport.bytes");
  return snapshot;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot delta;
  delta.zones_built = zones_built - before.zones_built;
  delta.sig_hits = sig_hits - before.sig_hits;
  delta.sig_misses = sig_misses - before.sig_misses;
  delta.signatures_checked = signatures_checked - before.signatures_checked;
  delta.route_selections = route_selections - before.route_selections;
  delta.exchanges = exchanges - before.exchanges;
  delta.wire_bytes = wire_bytes - before.wire_bytes;
  return delta;
}

void CounterSnapshot::report(Report& report) const {
  const uint64_t lookups = sig_hits + sig_misses;
  report.add("rss.zones_built", static_cast<double>(zones_built), "count");
  report.add("dnssec.rsa_signs", static_cast<double>(sig_misses), "count");
  report.add("dnssec.sig_cache_lookups", static_cast<double>(lookups), "count");
  report.add("dnssec.sig_cache_hit_ratio",
             lookups ? static_cast<double>(sig_hits) / static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  report.add("dnssec.signatures_checked", static_cast<double>(signatures_checked),
             "count");
  report.add("netsim.route_selections", static_cast<double>(route_selections),
             "count");
  report.add("netsim.queries", static_cast<double>(exchanges), "count");
  report.add("netsim.wire_bytes", static_cast<double>(wire_bytes), "bytes");
}

uint64_t setup_seed(uint64_t seed, size_t index) {
  if (index == 0) return seed;
  return util::Rng(seed).fork(util::format("setup-%zu", index)).next();
}

void time_setup_batch(uint64_t seed, size_t batch, size_t batches,
                      const std::function<double(uint64_t)>& timed_set_up,
                      Report& report) {
  const size_t per_batch = (kSetupSeeds + batches - 1) / batches;
  const size_t end = std::min(kSetupSeeds, (batch + 1) * per_batch);
  for (size_t i = batch * per_batch; i < end; ++i)
    report.setup_samples.push_back(timed_set_up(setup_seed(seed, i)));
}

void add_end_to_end(Report& report, double work_per_call, double setup_rss_mb) {
  const double run_s = median(report.run_samples);
  report.add("run_s", run_s, "s");
  report.add("throughput_per_s", run_s > 0 ? work_per_call / run_s : 0, "1/s");
  report.add("setup_s", median(report.setup_samples), "s");
  report.add("peak_rss_mb", median(report.peak_samples), "MiB");
  report.add("setup_rss_mb", setup_rss_mb, "MiB");
  report.note(util::format("timed calls: %zu, %.0f work items per call",
                           report.run_samples.size(), work_per_call));
}

bool check_digest(const RunOptions& options, const std::string& digest,
                  Report& report) {
  if (report.digest.empty()) {
    report.digest = digest;
  } else if (digest != report.digest) {
    report.fail("output digest " + digest + " differs from the first call's " +
                report.digest);
    return false;
  }
  if (!options.expected_digest.empty() && digest != options.expected_digest) {
    report.fail("output digest " + digest + " differs from the recorded " +
                options.expected_digest);
    return false;
  }
  return true;
}

std::string slo_digest(const std::string& slo_jsonl,
                       const std::string& incidents_jsonl) {
  Digest digest;
  digest.add(slo_jsonl);
  digest.add(incidents_jsonl);
  return digest.hex();
}

void write_trace(const RunOptions& options, const SpanLog& log,
                 const std::vector<uint32_t>& workload_roots, Report& report) {
  // Self time per layer over the workload's calls; the benchmark's own
  // glue between spans (its root spans' self time) is left out of the base.
  std::map<std::string, double> self_ms;
  for (uint32_t root : workload_roots)
    for (const auto& [layer, ms] : log.self_ms_by_layer(root))
      if (layer != "replay") self_ms[layer] += ms;
  double total = 0;
  for (const auto& entry : self_ms) total += entry.second;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [layer, ms] : self_ms) ranked.emplace_back(ms, layer);
  std::sort(ranked.rbegin(), ranked.rend());
  std::string shares;
  std::string summary;
  for (const auto& [ms, layer] : ranked) {
    const double share = total > 0 ? ms / total : 0;
    shares += (shares.empty() ? "" : ", ") + json_string(layer) + ": {\"self_ms\": " +
              json_number(ms) + ", \"share\": " + json_number(share) + "}";
    summary += util::format(" %s %.1f%%", layer.c_str(), 100 * share);
  }
  report.note(util::format("layer shares of the workload replay (%.0f ms):",
                           total) + summary);

  std::filesystem::create_directories(options.out_dir);
  const std::string path =
      options.out_dir + "/trace-" + options.workload + "-seed" +
      std::to_string(options.seed) + ".json";
  std::ofstream(path) << "{\"workload_layers\": {" << shares
                      << "},\n\"trace\": " << log.to_json() << "}\n";
}

}  // namespace rootbench
