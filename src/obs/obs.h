// The sink handle the runtime layers carry: three nullable pointers.
//
// A default-constructed Obs is the null sink — every helper is a no-op and
// instrumented code stays on its uninstrumented path (one branch on a null
// pointer), which is how tier-1 tests and the figure benches keep their
// byte-identical outputs. Attach a Recorder to turn recording on.
#pragma once

#include "obs/metrics.h"
#include "obs/rssac002.h"
#include "obs/trace.h"

namespace rootsim::obs {

struct Obs {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  Rssac002Collector* rssac002 = nullptr;

  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || rssac002 != nullptr;
  }

  /// Null-safe counter increment. Prefer caching the Counter* handle (via
  /// `counter_handle`) on hot paths; this convenience does a registry lookup.
  void count(std::string_view name, uint64_t n = 1) const {
    if (metrics) metrics->counter(name).inc(n);
  }
  void count(std::string_view name, LabelSet labels, uint64_t n = 1) const {
    if (metrics) metrics->counter(name, std::move(labels)).inc(n);
  }

  /// Resolve a counter or histogram handle once; nullptr on the null sink.
  Counter* counter_handle(std::string_view name, LabelSet labels = {}) const {
    return metrics ? &metrics->counter(name, std::move(labels)) : nullptr;
  }
  Histogram* histogram_handle(std::string_view name,
                              LabelSet labels = {}) const {
    return metrics ? &metrics->histogram(name, std::move(labels)) : nullptr;
  }
};

/// Increments a pre-resolved handle; no-op on nullptr.
inline void inc(Counter* counter, uint64_t n = 1) {
  if (counter) counter->inc(n);
}

/// Owns one registry, one tracer and one RSSAC002 collector and hands out
/// Obs handles. The usual pattern:
///
///   obs::Recorder recorder;
///   measure::Campaign campaign(config, recorder.obs());
///   ... run ...
///   obs::RunReport report = obs::RunReport::capture(recorder);
class Recorder {
 public:
  explicit Recorder(size_t trace_capacity = 1 << 16) : tracer_(trace_capacity) {
    // Registered eagerly so serial and sharded runs export the same series
    // set even when nothing overflows.
    tracer_.bind_drop_counter(&metrics_.counter("tracer.dropped_spans"));
  }

  Obs obs() { return Obs{&metrics_, &tracer_, &rssac002_}; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Rssac002Collector& rssac002() { return rssac002_; }
  const Rssac002Collector& rssac002() const { return rssac002_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  Rssac002Collector rssac002_;
};

}  // namespace rootsim::obs
