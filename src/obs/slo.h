// Streaming RSSAC047 SLO plane: sliding-window service-level metrics.
//
// The paper frames the root server system through RSSAC037's governance
// goals; RSSAC047 operationalizes them as measurable service metrics with
// thresholds (99.96 % service availability, response-latency bands,
// publication latency). A real root operator does not compute those *post
// hoc* after a campaign — thresholds are watched continuously and breaches
// page someone. This module is that watcher for the simulation: samples
// stream in as the campaign runs, land in fixed-width buckets of simulated
// time, and a deterministic sweep evaluates sliding windows against the
// thresholds (incident detection lives in obs/incident.h).
//
// Determinism contract (the same one Rssac002Collector keeps): a cell is a
// pile of merge-associative, merge-commutative accumulators — plain adds and
// fixed-layout log-linear histograms — keyed by (root, family, bucket) where
// the bucket boundary is a pure function of simulated time. Cells filled in
// any order therefore hold a serial run's counts bit for bit, and the
// window sweep + threshold evaluation is a pure function of the cells, so
// slo.jsonl is byte-identical at any worker count and under any steal
// schedule. "Streaming" means evaluation needs one ordered pass over the
// bucket timeline, never the raw samples — the batch RSSAC047 analysis
// records its samples into the same Cell, one per stream
// (analysis/rssac_metrics.h), so the two paths cannot drift.
//
// This header is deliberately free of dns/netsim/rss types: the measurement
// layer translates probe outcomes into plain-integer SloSamples, so obs
// stays the bottom of the dependency stack.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "obs/loglin.h"
#include "util/timeutil.h"

namespace rootsim::obs {

/// The 13 root letters; mirrors rss::kRootCount without the dependency.
inline constexpr size_t kSloRoots = 13;

/// One service-level observation, reduced to plain integers/doubles by the
/// measurement layer.
struct SloSample {
  enum class Kind : uint8_t {
    Availability,  ///< one probe: ok = the selected instance answered
    Latency,       ///< one answered probe's RTT: value = milliseconds
    Publication,   ///< one instance picked up a new serial: value = seconds
    Staleness,     ///< one probe's serial age behind the master: value = s
    Integrity,     ///< one zone-integrity check: ok = ZONEMD verifiable
  };
  uint8_t root = 0;         ///< root letter index (0 = a .. 12 = m)
  bool v6 = false;          ///< address family of the probed service address
  util::UnixTime when = 0;  ///< simulated time; bucketed by kSloBucketSeconds
  Kind kind = Kind::Availability;
  bool ok = true;           ///< Availability / Integrity verdict
  double value = 0;         ///< Latency ms; Publication / Staleness seconds
};

/// RSSAC047-style thresholds plus the window/hysteresis policy evaluated
/// against them. Defaults are the RSSAC047 targets where one exists and a
/// conservative operator band where it does not.
struct SloThresholds {
  /// RSSAC047: 99.96 % availability for the service.
  double availability_min = 0.9996;
  /// p95 response-latency band (ms), every letter: RSSAC047's latency
  /// target is per-protocol (250 ms UDP).
  double rtt_p95_max_ms = 250.0;
  /// RSSAC047 publication latency: new zones reach instances within 35 min.
  double publication_p95_max_s = 35.0 * 60;
  /// A served zone more than this far behind the master is stale.
  double staleness_max_s = 4.0 * 3600;
  /// Fraction of integrity checks (ZONEMD verifiable) that must pass.
  double integrity_min = 0.999;
  /// Sliding window length in buckets (window = last N buckets, inclusive).
  size_t window_buckets = 4;
  /// Windows with fewer availability probes than this are not evaluated
  /// (starved windows say nothing about the service).
  uint64_t min_probes = 16;
  /// Hysteresis: a breach must persist for `open_after` consecutive
  /// evaluated windows to open an incident, and the stream must stay healthy
  /// for `close_after` consecutive evaluated windows to close it — so a
  /// metric oscillating exactly at the threshold boundary never flaps.
  ///
  /// open_after defaults to window_buckets + 2 deliberately: one bad bucket
  /// smears across window_buckets consecutive sliding windows (every window
  /// containing it breaches), so any open_after <= window_buckets would page
  /// on a single blip. Demanding more consecutive breached windows than one
  /// bucket can produce means only multi-bucket events open incidents.
  size_t open_after = 6;
  size_t close_after = 4;
};

/// The metrics a window is evaluated on (bit positions in SloWindow::breaches).
enum class SloMetric : uint8_t {
  Availability = 0,
  Latency = 1,
  Publication = 2,
  Staleness = 3,
  Integrity = 4,
};
inline constexpr size_t kSloMetricCount = 5;

std::string_view to_string(SloMetric metric);

/// One evaluated sliding window of one (root, family) stream.
struct SloWindow {
  uint8_t root = 0;
  bool v6 = false;
  util::UnixTime start = 0;  ///< inclusive window start (simulated time)
  util::UnixTime end = 0;    ///< exclusive window end
  uint64_t probes = 0;
  uint64_t answered = 0;
  double availability = 1.0;
  uint64_t latency_count = 0;
  double rtt_p50_ms = 0;
  double rtt_p95_ms = 0;
  uint64_t publication_count = 0;
  double publication_p95_s = 0;
  uint64_t staleness_count = 0;
  double staleness_max_s = 0;
  uint64_t integrity_checks = 0;
  uint64_t integrity_ok = 0;
  /// Bitmask of breached SloMetrics; 0 = healthy.
  uint32_t breaches = 0;
  /// Enough probes to evaluate (SloThresholds::min_probes)?
  bool evaluated = false;

  bool breached(SloMetric metric) const {
    return breaches & (1u << static_cast<unsigned>(metric));
  }
};

/// The SLO plane's accumulator and its sweep. The program's one SLO path
/// uses the parts: Cell accumulates one (root, family) stream's samples, the
/// bucket helpers place them in time, and Drain sweeps the dense runs of
/// cells that run_slo_timeline fills, a chunk at a time, into evaluated
/// sliding windows. The collector object itself, a mutex-guarded map of
/// (root, family, bucket) cells with record, merge_from, snapshot and the
/// same sweep over the map (windows()), stays only as rootbench's replay
/// collector and as the reference sweep the tests hold the Drain to.
class SloCollector {
 public:
  /// Bucket width of simulated time. Fixed (not configured) so any two
  /// collectors are always merge-compatible — the sliding-window length and
  /// the thresholds are evaluation-time policy, not accumulation state.
  static constexpr int64_t kBucketSeconds = 6 * 3600;

  /// Bucket index containing `t` (floor division, total over UnixTime).
  static int64_t bucket_index(util::UnixTime t);
  static util::UnixTime bucket_start(int64_t index);

  /// Everything one (root, family) stream accumulated over one bucket.
  struct Cell {
    uint64_t probes = 0;
    uint64_t answered = 0;
    LogLinearHistogram rtt_us;          ///< answered-probe RTTs, microseconds
    LogLinearHistogram publication_s;   ///< per-instance publication latencies
    LogLinearHistogram staleness_s;     ///< served-serial age behind master
    uint64_t integrity_checks = 0;
    uint64_t integrity_ok = 0;

    /// Adds one sample; which cell it belongs in is the caller's business.
    void record(const SloSample& sample);
    void merge_from(const Cell& other);
    /// No sample recorded: every sample kind counts in one of these.
    bool empty() const {
      return probes == 0 && rtt_us.count() == 0 &&
             publication_s.count() == 0 && staleness_s.count() == 0 &&
             integrity_checks == 0;
    }
    /// Back to a default cell, keeping the histograms' storage.
    void clear();
  };

  void record(const SloSample& sample);
  void merge_from(const SloCollector& other);

  /// Distinct (root, family, bucket) cells accumulated.
  size_t cell_count() const;

  /// Key = (root, family 0/1, bucket index); deterministic map order.
  using CellKey = std::tuple<uint8_t, uint8_t, int64_t>;
  std::vector<std::pair<CellKey, Cell>> snapshot() const;

  /// The deterministic sliding-window sweep: for every (root, family)
  /// stream, one SloWindow per bucket in the stream's [first, last] bucket
  /// range (empty buckets included — a silent stream still advances the
  /// window), each aggregating the trailing `thresholds.window_buckets`
  /// buckets and evaluated against the thresholds. Ordered by (root, family,
  /// bucket), i.e. grouped per stream in time order — the order
  /// IncidentTracker::observe expects.
  std::vector<SloWindow> windows(const SloThresholds& thresholds) const;

  /// windows() of cells that arrive as dense runs, one stream's buckets at
  /// a time and in time order, without a collector: the caller keeps one
  /// chunk of cells, and the Drain keeps copies of the few cells a later
  /// window still reads and, of the totals, only the counts.
  class Drain {
   public:
    /// A timeline of `buckets` buckets from `first_bucket`; every run added
    /// must lie in it.
    Drain(const SloThresholds& thresholds, int64_t first_bucket,
          size_t buckets);

    /// One stream's cells of buckets [first_bucket, first_bucket +
    /// cells.size()): cells[i] is bucket first_bucket + i, and an empty
    /// cell is a bucket without a sample. Sweeps the stream's windows from
    /// its first bucket not yet swept through its newest non-empty cell into
    /// their final slots, adds the cells' counts to its totals, and carries
    /// copies of the non-empty cells a later window reads (at most
    /// window_buckets - 1) into the stream's next run. A run that does not
    /// lie inside the timeline, or that starts before the stream's previous
    /// run ends, stops the process in every build. Runs of different
    /// streams share no state, so they may be added concurrently.
    void add(uint8_t root, bool v6, int64_t first_bucket,
             std::span<const Cell> cells);

    /// windows() of every run added. Call once, after the last add().
    std::vector<SloWindow> take_windows();

    /// One stream's cells added up: their counts, without the histograms'
    /// buckets.
    struct Totals {
      uint64_t probes = 0;
      uint64_t answered = 0;
      uint64_t latency_count = 0;
      uint64_t publication_count = 0;
      uint64_t staleness_count = 0;
      uint64_t integrity_checks = 0;
      uint64_t integrity_ok = 0;
    };
    const Totals& totals(uint8_t root, bool v6) const;
    /// Cells the stream carries into its next run.
    size_t carried(uint8_t root, bool v6) const;

   private:
    static constexpr int64_t kNotStarted = std::numeric_limits<int64_t>::min();
    struct Stream {
      int64_t begin = 0;           ///< bucket of the stream's first window
      int64_t next = kNotStarted;  ///< the cursor: first bucket not swept
      int64_t fed = 0;             ///< first bucket after the runs added
      Totals totals;
      /// The non-empty cells of [next - window_buckets + 1, next), in
      /// bucket order.
      std::vector<std::pair<int64_t, Cell>> carry;
    };
    SloThresholds thresholds_;
    int64_t first_bucket_;
    size_t buckets_;
    std::array<Stream, kSloRoots * 2> streams_;
    /// Stream s's window of bucket b sits in slot
    /// s * buckets_ + (b - first_bucket_) until take_windows().
    std::vector<SloWindow> windows_;
  };

  /// One JSON object per evaluated window (the slo.jsonl export):
  ///   {"letter":"b","family":"v4","start":"2023-11-27T00:00:00Z",...,
  ///    "availability":0.9931,"breaches":["availability"]}
  /// Non-empty `scenario` prepends one `{"scenario":"<name>"}` header line
  /// so downstream tooling can say which timeline a dataset came from; the
  /// window lines themselves are unchanged.
  static std::string windows_to_jsonl(std::span<const SloWindow> windows,
                                      const std::string& scenario = "");
  /// The lines windows_to_jsonl(windows) holds, without the string: writes
  /// them to `out` unless it is null, and returns their size either way. A
  /// caller sizes each run of windows first, then writes each straight into
  /// its place in one buffer.
  static size_t write_window_lines(std::span<const SloWindow> windows,
                                   char* out);

 private:
  /// A cell and its bucket, as the sweep reads them.
  using BucketCell = std::pair<int64_t, const Cell*>;
  /// One stream's cells in bucket order; the caller holds mu_.
  std::vector<BucketCell> stream_cells(uint8_t root, bool v6) const;
  /// The windows of buckets [from, last cell's bucket] over one stream's
  /// cells, written to out[0], out[1], ...; returns how many. The one sweep
  /// behind windows() and the Drain: it slides running sums along the
  /// cells, adding a cell's counts as it enters the window and subtracting
  /// them as it leaves, and keeps the RTT and publication histograms as
  /// dense sums over LogLinearHistogram's layout, with a total per octave,
  /// so a window's quantiles equal a fresh merge's bit for bit. Those sums
  /// are locals of the call.
  static size_t sweep(const SloThresholds& thresholds, uint8_t root, bool v6,
                      std::span<const BucketCell> cells, int64_t from,
                      SloWindow* out);

  mutable std::mutex mu_;
  std::map<CellKey, Cell> cells_;
};

}  // namespace rootsim::obs
