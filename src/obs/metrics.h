// Metrics substrate for the measurement pipeline: counters, gauges and
// log-linear histograms behind one registry.
//
// Design constraints (after ZDNS's per-query status output):
//   * counter and gauge updates are lock-free (relaxed atomics on
//     pre-resolved handles); a histogram observation takes only its own
//     series' mutex. The registry mutex is only taken at registration time,
//     so instrumented code caches `Counter*` / `Histogram*` handles once
//     and never touches it afterwards;
//   * iteration order is deterministic (name-then-label lexicographic), so
//     exports from equal-seed runs are byte-identical;
//   * wall-clock style metrics are flagged `volatile_metric` and excluded
//     from exports by default — everything exported is a pure function of
//     (seed, config).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/loglin.h"

namespace rootsim::obs {

/// Sorted key=value pairs attached to a metric ("family=v4"). Kept small;
/// the registry normalizes ordering so {a=1,b=2} and {b=2,a=1} are one series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Renders "{k1=v1,k2=v2}" (empty string for no labels).
std::string labels_to_string(const LabelSet& labels);

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value with a set-to-max convenience (zone serials).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// The registry's histogram series: one LogLinearHistogram (see loglin.h)
/// behind a mutex, so several threads may observe one series at once.
/// Observations are non-negative integers in the series' unit
/// (prober.rtt_us counts microseconds).
class Histogram {
 public:
  void observe(uint64_t value);

  /// Adds another series' buckets (parallel shard merge). Copies `other`
  /// under its own lock, then merges under this one: the two locks are
  /// never held together.
  void merge_from(const Histogram& other);

  /// A copy of the buckets, count, sum and max.
  LogLinearHistogram snapshot() const;

 private:
  mutable std::mutex mu_;
  LogLinearHistogram histogram_;
};

/// A point-in-time copy of one metric series, used by exports and RunReport.
struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  LabelSet labels;
  Kind kind = Kind::Counter;
  bool volatile_metric = false;  ///< wall-clock etc.; excluded by default
  uint64_t count = 0;            ///< counter value
  double value = 0;              ///< gauge value
  LogLinearHistogram histogram;  ///< histogram only
};

class MetricsRegistry {
 public:
  /// Registration: returns a stable handle, creating the series on first
  /// use. Handles stay valid for the registry's lifetime; increments on them
  /// never take the registry lock.
  Counter& counter(std::string_view name, LabelSet labels = {});
  Gauge& gauge(std::string_view name, LabelSet labels = {},
               bool volatile_metric = false);
  Histogram& histogram(std::string_view name, LabelSet labels = {});

  /// Deterministically ordered copy of every series.
  std::vector<MetricSample> snapshot(bool include_volatile = false) const;

  /// Folds another registry into this one: counters and histograms add,
  /// gauges take the max (every gauge in the pipeline is monotone — serials,
  /// set sizes). Used by the exec engine to merge per-unit shards; merging
  /// shards in any order yields the same totals, and the totals equal a
  /// serial run's.
  void merge_from(const MetricsRegistry& other);

  /// Plain-text export, one series per line:
  ///   prober.queries{rcode=NOERROR} 12345
  ///   prober.rtt_us{family=v4} count=6 sum=390291 max=203182 p50=26624.0
  ///     p90=199884.8 p99=204308.5 p999=204750.8   (one line)
  std::string to_text(bool include_volatile = false) const;

  /// JSON-lines export, one object per series (stable key order). A
  /// histogram carries the fields of LogLinearHistogram::to_json():
  ///   {"metric":"prober.rtt_us","labels":{"family":"v4"},
  ///    "type":"histogram","count":6,"sum":390291,"max":203182,
  ///    "p50":26624.0,...,"buckets":[[13312,13824,1],...]}   (one line)
  std::string to_jsonl(bool include_volatile = false) const;

  /// Total value of a counter across all label sets (0 when absent).
  uint64_t counter_total(std::string_view name) const;
  /// Value of one exact counter series (0 when absent).
  uint64_t counter_value(std::string_view name, const LabelSet& labels) const;

 private:
  struct Key {
    std::string name;
    LabelSet labels;
    bool operator<(const Key& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::Counter;
    bool volatile_metric = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> series_;
};

/// Renders a MetricSample as one JSONL object (shared by registry export and
/// RunReport).
std::string sample_to_json(const MetricSample& sample);
/// Renders a MetricSample as one text line.
std::string sample_to_text(const MetricSample& sample);

/// Minimal JSON string escaping for exporter output.
std::string json_escape(std::string_view text);

}  // namespace rootsim::obs
