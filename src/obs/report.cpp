#include "obs/report.h"

#include <algorithm>

#include "util/strings.h"

namespace rootsim::obs {

RunReport RunReport::capture(const Obs& obs, bool include_volatile) {
  RunReport report;
  if (obs.metrics) report.metrics = obs.metrics->snapshot(include_volatile);
  if (obs.tracer) {
    report.trace_recorded = obs.tracer->recorded();
    report.trace_buffered = obs.tracer->size();
    report.trace_dropped = obs.tracer->dropped();
  }
  return report;
}

RunReport RunReport::capture(const Recorder& recorder, bool include_volatile) {
  RunReport report;
  report.metrics = recorder.metrics().snapshot(include_volatile);
  report.trace_recorded = recorder.tracer().recorded();
  report.trace_buffered = recorder.tracer().size();
  report.trace_dropped = recorder.tracer().dropped();
  return report;
}

uint64_t RunReport::counter_total(std::string_view name) const {
  uint64_t total = 0;
  for (const MetricSample& sample : metrics)
    if (sample.kind == MetricSample::Kind::Counter && sample.name == name)
      total += sample.count;
  return total;
}

uint64_t RunReport::counter_value(std::string_view name,
                                  const LabelSet& labels) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const MetricSample& sample : metrics)
    if (sample.kind == MetricSample::Kind::Counter && sample.name == name &&
        sample.labels == sorted)
      return sample.count;
  return 0;
}

std::string RunReport::one_line() const {
  bool any = false;
  std::string out = "obs:";
  auto emit = [&](const char* label, std::string_view metric) {
    bool present = std::any_of(
        metrics.begin(), metrics.end(),
        [&](const MetricSample& sample) { return sample.name == metric; });
    if (!present) return;
    any = true;
    out += util::format(" %s=%llu", label,
                        static_cast<unsigned long long>(counter_total(metric)));
  };
  emit("probes", "prober.probes");
  emit("queries", "prober.queries");
  emit("timeouts", "prober.query_timeouts");
  emit("tcp-retries", "prober.tcp_retries");
  emit("axfr", "prober.axfr");
  emit("served", "rss.queries_served");
  emit("truncations", "rss.truncations");
  emit("zones-built", "rss.zones_built");
  emit("routes", "netsim.route_selections");
  emit("site-flips", "netsim.site_flips");
  emit("churn", "netsim.churn_events");
  emit("validations", "dnssec.validations");
  if (trace_recorded) {
    any = true;
    out += util::format(" trace-events=%llu",
                        static_cast<unsigned long long>(trace_recorded));
    if (trace_dropped)
      out += util::format(" trace-dropped=%llu",
                          static_cast<unsigned long long>(trace_dropped));
  }
  if (!any) out += " (no samples recorded)";
  return out;
}

}  // namespace rootsim::obs
