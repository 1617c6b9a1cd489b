// RunReport: one struct snapshotting registry + tracer at end of run, with
// the renderings the benches and examples print at exit.
#pragma once

#include <string>
#include <string_view>

#include "obs/obs.h"

namespace rootsim::obs {

struct RunReport {
  std::vector<MetricSample> metrics;  ///< deterministic order
  uint64_t trace_recorded = 0;        ///< total events seen by the tracer
  uint64_t trace_buffered = 0;        ///< events still in the ring
  uint64_t trace_dropped = 0;         ///< events evicted by the ring bound

  /// Null-safe: capturing from a null sink yields an empty report.
  static RunReport capture(const Obs& obs, bool include_volatile = false);
  static RunReport capture(const Recorder& recorder,
                           bool include_volatile = false);

  /// Sum of a counter across all label sets (0 when absent).
  uint64_t counter_total(std::string_view name) const;
  /// One exact counter series (0 when absent).
  uint64_t counter_value(std::string_view name, const LabelSet& labels) const;

  /// One-line summary for bench footers:
  ///   obs: probes=94 queries=4418 timeouts=0 tcp-retries=94 axfr-ok=94 ...
  std::string one_line() const;
};

}  // namespace rootsim::obs
