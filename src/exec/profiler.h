// Exec-pool profiler: per-unit wall/sim spans and per-worker utilization.
//
// When a parallel region scales worse than its worker count, the profiler
// says *why* — long-pole units, uneven ranges, or merge-time serialization —
// with a per-unit span timeline and an imbalance report (critical path vs
// total work), emitted as PROF_exec_audit.json.
//
// Profiling is wall-clock by nature, so its output is *not* deterministic and
// never mixes into the metric/trace exports: the profiler writes its own
// artifact and nothing else. A region is profiled by passing a Profiler as
// parallel_for's last argument; with the knob off (no ROOTSIM_PROFILE in the
// environment) callers pass nullptr, and parallel_for runs the unprofiled
// loop after one branch.
//
// Recording is slot-addressed like the engine's result vectors: unit i writes
// units_[i], distinct units never share a slot, and the region's thread join
// provides the happens-before edge for the final read — no locks on the hot
// path.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rootsim::exec {

class Profiler {
 public:
  Profiler() : origin_(Clock::now()) {}

  /// True when the ROOTSIM_PROFILE environment variable is set to anything
  /// but "" or "0".
  static bool enabled_by_env();
  /// Output path from the knob: ROOTSIM_PROFILE=1 means the conventional
  /// "PROF_exec_audit.json"; any other value is used as the path itself.
  static std::string env_output_path();

  /// Milliseconds of wall clock since construction.
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  /// Opens a profiled region of `unit_count` slot-addressed units running on
  /// `workers` workers. Clears any previous region.
  void begin_region(size_t unit_count, size_t workers);
  /// Records how many times worker `worker` stole from a victim's range.
  void note_steals(size_t worker, uint64_t count);
  /// Records unit `unit`'s wall span on worker `shard`. Slot-addressed:
  /// callers pass distinct units, so no synchronization is needed.
  void unit_done(size_t unit, size_t shard, double begin_ms, double end_ms);
  /// Attributes simulated transport time to a unit (how much *simulated*
  /// work the unit represented, vs the wall time it cost).
  void add_unit_sim_ms(size_t unit, double sim_ms);
  /// Closes the region (stamps the region's wall span).
  void end_region();

  size_t unit_count() const { return units_.size(); }
  size_t workers() const { return workers_; }
  double wall_ms() const { return region_end_ms_ - region_begin_ms_; }

  /// Per-worker rollup derived from the unit spans.
  struct WorkerReport {
    size_t worker = 0;
    size_t units = 0;
    double busy_ms = 0;       ///< sum of unit wall spans
    double first_begin_ms = 0;
    double last_end_ms = 0;
    double utilization = 0;   ///< busy_ms / region wall_ms
    double idle_ms = 0;       ///< region wall_ms - busy_ms
    double sim_ms = 0;        ///< simulated time attributed to its units
    uint64_t steal_count = 0; ///< steals this worker performed
  };
  std::vector<WorkerReport> worker_reports() const;

  /// The whole audit as one JSON object:
  ///   {"schema":"rootsim-exec-profile/2","summary":{...},
  ///    "per_worker":[...],"units":[[unit,worker,begin,end,sim],...]}
  /// summary carries workers/units/wall_ms/total_busy_ms/critical_path_ms/
  /// parallel_efficiency/imbalance/tail_ms/sched/hardware_concurrency
  /// (sched is always "steal", the one scheduler; the key stays so the
  /// schema does not change) —
  /// critical path is the busiest worker's span sum; imbalance is critical
  /// path over mean worker busy time (1.0 = perfectly balanced); tail_ms is
  /// the post-last-unit span (region end minus the last unit's end: join +
  /// shard-merge time no unit span accounts for).
  std::string to_json() const;
  /// Writes to_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct UnitSpan {
    uint32_t shard = 0;
    bool recorded = false;
    double begin_ms = 0;
    double end_ms = 0;
    double sim_ms = 0;
  };

  Clock::time_point origin_;
  size_t workers_ = 0;
  double region_begin_ms_ = 0;
  double region_end_ms_ = 0;
  std::vector<uint64_t> steals_;
  std::vector<UnitSpan> units_;
};

}  // namespace rootsim::exec
