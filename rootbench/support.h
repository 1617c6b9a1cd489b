// Shared plumbing of the rootsim benchmark: the run options, the metric list
// every workload fills, statistics, process memory/CPU readings, an output
// digest, and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rootbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the timed phase; setup and the traced replays come on top.
  double seconds = 10;
  bool trace = false;
  /// Fixed worker count of every timed call (min(4, host threads)).
  size_t workers = 1;
  /// Directory the result and span files are written to.
  std::string out_dir = ".bench_out";
  /// Recorded output digest for this workload and seed (empty = none).
  std::string expected_digest;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count timed calls and
/// the calls whose output check failed; `notes` are human-readable lines
/// printed before the result and kept in the result file.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Output digest of the timed calls (identical across calls when correct).
  std::string digest;
  /// Per-call wall times (s), set-up times (s) and peak RSS during each
  /// call (MiB).
  std::vector<double> run_samples;
  std::vector<double> setup_samples;
  std::vector<double> peak_samples;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed output check: counts it (once per call) and says why.
  void fail(const std::string& why);
};

double seconds_since(Clock::time_point start);
int64_t nanos_between(Clock::time_point a, Clock::time_point b);

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Process CPU time (all threads), seconds.
double process_cpu_seconds();
/// Current and peak resident set size of this process, MiB (/proc).
double current_rss_mb();
double peak_rss_mb();
/// Restarts the peak RSS (VmHWM) from the current RSS.
void reset_peak_rss();
/// Returns freed heap pages to the OS so a later RSS delta measures growth.
void trim_heap();
/// Bytes the allocator has handed out and not yet had back (all arenas).
double heap_in_use_bytes();

/// FNV-1a 64 over a byte stream; hex() renders the state.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(uint64_t value);
  std::string hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Spans of the traced run, kept in memory and written out at the end.
///
/// An interval span covers [start, start + duration) of one call. An
/// aggregate span folds many short calls of one kind (one per batch) into a
/// summed duration and a call count; it carries no interval. A span's self
/// time is its duration minus the union of its interval children, minus the
/// summed duration of its aggregate children. A span's layer is its name up
/// to the first '.', e.g. "rss" for "rss.zone_at".
///
/// A disabled log records nothing and reads no clock: open() returns 0,
/// close(0) and add_aggregate() do nothing, duration_ms(0) is 0. Running a
/// replay against one gives the wall time of the same calls untraced.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
    uint64_t calls = 1;
    bool aggregate = false;
  };

  explicit SpanLog(bool enabled = true);
  bool enabled() const { return enabled_; }
  uint32_t open(std::string name, uint32_t parent);
  void close(uint32_t id);
  void add_aggregate(std::string name, uint32_t parent, int64_t total_ns,
                     uint64_t calls);

  /// Wall time of span `id`, ms.
  double duration_ms(uint32_t id) const;
  /// Per-layer self time (ms) over the subtree rooted at span `root`.
  std::map<std::string, double> self_ms_by_layer(uint32_t root) const;

  /// JSON array of spans (one object per span) plus per-root layer self
  /// times, for the trace file.
  std::string to_json() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  Clock::time_point origin_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// RAII interval span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_ = 0;
};

/// Accumulates the durations of many short calls of one kind; flush() turns
/// the calls since the last flush into one aggregate span. Per-call samples
/// (µs) are kept for percentiles unless `keep_samples` is false. On a
/// disabled log it only makes the calls.
class CallTimer {
 public:
  CallTimer(const SpanLog& log, std::string name, bool keep_samples = true)
      : name_(std::move(name)), enabled_(log.enabled()), keep_samples_(keep_samples) {}
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    if (!enabled_) return fn();
    const Clock::time_point start = Clock::now();
    struct Stop {
      CallTimer* self;
      Clock::time_point start;
      ~Stop() { self->record(nanos_between(start, Clock::now())); }
    } stop{this, start};
    return fn();
  }
  void record(int64_t ns);
  void flush(SpanLog& log, uint32_t parent);

  const std::vector<double>& samples_us() const { return samples_us_; }
  uint64_t total_calls() const { return total_calls_; }
  double total_ms() const { return static_cast<double>(total_ns_) / 1e6; }

 private:
  std::string name_;
  bool enabled_;
  bool keep_samples_;
  std::vector<double> samples_us_;
  uint64_t total_calls_ = 0;
  int64_t total_ns_ = 0;
  int64_t pending_ns_ = 0;
  uint64_t pending_calls_ = 0;
};

/// JSON string literal (quotes + escapes).
std::string json_string(std::string_view text);
/// Number rendering with all significant digits.
std::string json_number(double value);

}  // namespace rootbench
