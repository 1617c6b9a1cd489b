// rootbench: the rootsim benchmark program.
//
//   rootbench --workload audit-cold|audit-warm|slo-froot --seed N
//             --seconds S --trace 0|1 [--workers N] [--expect-digest HEX]
//             [--commit ID] [--out-dir DIR]
//
// --trace 0 times the workload's public entry point with the obs plane off
// and reports the end-to-end metrics; --trace 1 makes the separate traced run
// and reports the per-layer metrics. Either way the output of every timed
// call is checked, the run manifest and every metric are printed by name with
// their unit, a result file is written under --out-dir, and the last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "exec/engine.h"
#include "workloads.h"

namespace rootbench {
namespace {

// The metric names BENCHMARK.json lists, per mode.
const std::vector<std::string> kEndToEnd = {
    "run_s", "throughput_per_s", "setup_s", "peak_rss_mb", "setup_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "scenario.apply_ms",           "measure.campaign_build_ms",
    "measure.probe_us.p50",        "measure.probe_us.p99",
    "rss.zone_at_ms",              "rss.zone_at_parallel_speedup",
    "rss.zones_built",             "dnssec.rsa_signs",
    "dnssec.sig_cache_lookups",    "dnssec.sig_cache_hit_ratio",
    "crypto.rsa_sign_us",          "dns.axfr_encode_ms",
    "dns.zone_from_axfr_us",       "dnssec.validate_zone_ms.p50",
    "dnssec.validate_zone_ms.p99", "dnssec.signatures_checked",
    "netsim.route_at_us.p50",      "netsim.route_at_us.p99",
    "netsim.announced_routes_us",  "netsim.route_selections",
    "netsim.queries",              "netsim.wire_bytes",
    "obs.slo_record_ns",           "obs.slo_merge_ms",
    "obs.slo_windows_ms",          "obs.slo_cells",
    "obs.slo_bytes_per_cell",      "obs.incident_observe_ms",
    "exec.busy_ratio",             "trace.run_s",
    "trace.untraced_run_s",        "trace.overhead_s",
    "trace.recorder_overhead_s"};

// Environment knobs that would silently change what runs.
const char* const kClearedEnv[] = {"ROOTSIM_WORKERS", "ROOTSIM_SCHED",
                                   "ROOTSIM_PROFILE"};

int usage(const char* why) {
  std::fprintf(stderr,
               "rootbench: %s\nusage: rootbench --workload "
               "audit-cold|audit-warm|slo-froot --seed N --seconds S --trace 0|1 "
               "[--workers N] [--expect-digest HEX] [--commit ID] [--out-dir DIR]\n",
               why);
  return 2;
}

std::string manifest_json(const RunOptions& options, const std::string& commit,
                          const std::string& cleared_env) {
  const char* scenario =
      options.workload == "slo-froot" ? "froot-buildout" : "paper-2023";
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"scenario\": " << json_string(scenario)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"workers\": " << options.workers
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"scheduler\": "
      << json_string(exec::to_string(exec::resolve_scheduler()))
      << ", \"build_type\": " << json_string(ROOTBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(ROOTBENCH_COMPILER)
      << ", \"commit\": " << json_string(commit)
      << ", \"cleared_env\": {" << cleared_env << "}}";
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  return out.str() + "}";
}

std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i)
    out += (i ? ", " : "") + json_number(samples[i]);
  return out + "]";
}

int run(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  size_t workers = 0;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &rest, 10);
      if (value.empty() || *rest) return usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &rest);
      if (value.empty() || *rest || !(options.seconds > 0))
        return usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workers") {
      workers = std::strtoull(value.c_str(), &rest, 10);
      if (value.empty() || *rest || workers == 0) return usage("bad --workers");
    } else if (flag == "--expect-digest") {
      options.expected_digest = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "audit-cold" && options.workload != "audit-warm" &&
      options.workload != "slo-froot")
    return usage("unknown or missing --workload");
  if (!have_seconds || !have_trace) return usage("--seconds and --trace are required");

  std::string cleared_env;
  for (const char* name : kClearedEnv) {
    const char* value = std::getenv(name);
    if (!cleared_env.empty()) cleared_env += ", ";
    cleared_env += json_string(name) + ": " +
                   (value ? json_string(value) : std::string("null"));
    unsetenv(name);
  }
  const size_t host_threads = std::max(1u, std::thread::hardware_concurrency());
  options.workers = workers ? workers : std::min<size_t>(4, host_threads);

  const std::string manifest = manifest_json(options, commit, cleared_env);
  std::printf("manifest %s\n", manifest.c_str());
  std::fflush(stdout);

  Report report = options.workload == "slo-froot"
                      ? run_slo(options)
                      : run_audit(options, options.workload == "audit-warm");

  // Report exactly the metrics BENCHMARK.json lists for this mode, in order.
  const std::vector<std::string>& names = options.trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> metrics;
  bool complete = true;
  for (const std::string& name : names) {
    auto it = std::find_if(report.metrics.begin(), report.metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == report.metrics.end()) {
      report.note("MISSING METRIC: " + name);
      complete = false;
    } else {
      metrics.push_back(*it);
    }
  }
  const bool correct = complete && report.attempted > 0 && report.failed == 0;

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  std::printf("output digest %s\n", report.digest.c_str());
  for (const Metric& metric : metrics)
    std::printf("metric %-32s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());

  std::filesystem::create_directories(options.out_dir);
  const std::string result_path = options.out_dir + "/result-" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  "-trace" + (options.trace ? "1" : "0") + ".json";
  {
    std::ofstream out(result_path);
    out << "{\"manifest\": " << manifest << ",\n \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed
        << ", \"digest\": " << json_string(report.digest)
        << ",\n \"run_s_samples\": " << samples_json(report.run_samples)
        << ",\n \"setup_s_samples\": " << samples_json(report.setup_samples)
        << ",\n \"peak_rss_mb_samples\": " << samples_json(report.peak_samples)
        << ",\n \"metrics\": " << metrics_json(report.metrics) << ",\n \"notes\": [";
    for (size_t i = 0; i < report.notes.size(); ++i)
      out << (i ? ", " : "") << json_string(report.notes[i]);
    out << "]}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace rootbench

int main(int argc, char** argv) {
  try {
    return rootbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rootbench: %s\n", error.what());
    return 1;
  }
}
