// Deterministic parallel execution engine.
//
// The paper's corpus is 675 VPs x 10,272 rounds x 26 addresses — far beyond
// what a single thread covers in reasonable wall time. This engine fans work
// units out over a fixed-size worker pool while keeping every output a pure
// function of (seed, config), independent of thread count and scheduling:
//
//   * callers draw per-unit RNGs by forking the campaign seed by unit name,
//     never by sharing a sequential stream across units;
//   * results are slot-addressed (unit i writes output[i]);
//   * observability is sharded per *unit* (ObsShards) and absorbed into the
//     main recorder in unit order after the region, which reproduces the
//     exact counter totals, histogram buckets, trace ids and ring-drop
//     behaviour of a single-threaded run — exports stay byte-identical no
//     matter which worker ran which unit, or in what order.
//
// Scheduling (which worker runs which unit, when) is therefore free to be
// dynamic. The one scheduler is deterministic work stealing: each worker
// owns a contiguous range of units packed into one 64-bit atomic; owners pop
// units from the front, idle workers steal the tail half of the richest
// victim's remaining range. Long-pole units never strand the rest of a
// worker's range behind them (see DESIGN.md §9 for the determinism argument).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace rootsim::exec {

class Profiler;

/// Effective worker count: `requested` if nonzero, else the ROOTSIM_WORKERS
/// environment variable, else 1. Never returns 0.
size_t resolve_workers(size_t requested = 0);

/// The scheduler parallel_for runs: work stealing, the only one. rootbench
/// names it in its run manifest through these two functions, which is the
/// only reason they exist; drop them once that manifest stops asking.
enum class SchedulerMode { WorkSteal };
constexpr SchedulerMode resolve_scheduler() { return SchedulerMode::WorkSteal; }
constexpr std::string_view to_string(SchedulerMode) { return "steal"; }

/// Runs `fn(unit, worker)` for every unit in [0, unit_count) on `workers`
/// threads. With workers == 1 the loop runs inline on the calling thread (no
/// pool, no atomics), so serial and parallel runs differ only in
/// interleaving — never in results. The second argument to `fn` is the
/// *worker* index (which thread is calling), not a partition: any worker may
/// run any unit, so everything a unit builds or writes (its prober, RNG
/// forks, output slots, obs shard) is keyed by `unit`. No loop in src/ keeps
/// per-worker state; the tests read the index to check the pool's bounds.
///
/// A non-null `profiler` records every unit's wall span and per-worker steal
/// counts (see profiler.h). Profiling only ever changes what is *measured*,
/// never what runs: a null profiler runs the unprofiled loop, and outputs
/// are identical with it on or off.
///
/// Precondition, checked in every build type before any thread starts:
/// unit_count <= UINT32_MAX (the scheduler packs unit indices into 32 bits).
/// A larger count stops the process with a message naming it.
void parallel_for(size_t unit_count, size_t workers,
                  const std::function<void(size_t unit, size_t worker)>& fn,
                  Profiler* profiler = nullptr);

/// Per-unit observability shards with deterministic merge.
///
/// Each unit records into its own Recorder; merge() absorbs them into the
/// main sinks in unit order. Shard tracers get the main tracer's capacity:
/// the concatenation of per-unit event streams in unit order *is* the serial
/// event stream, so the merged ring's content, id sequence and drop count
/// are byte-identical to a serial run (see Tracer::absorb) — regardless of
/// which worker ran which unit or in what order the scheduler interleaved
/// them. On a null main sink every shard is the null sink too and merge()
/// is a no-op.
class ObsShards {
 public:
  /// One shard per unit: pass the region's unit count.
  ObsShards(obs::Obs main, size_t shard_count);

  /// The Obs handle unit `index`'s work records into.
  obs::Obs shard(size_t index);

  /// Absorbs all shards into the main sinks, in unit order. Call exactly
  /// once, after the parallel region.
  void merge();

 private:
  obs::Obs main_;
  std::vector<std::unique_ptr<obs::Recorder>> shards_;
};

}  // namespace rootsim::exec
