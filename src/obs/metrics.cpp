#include "obs/metrics.h"

#include <algorithm>

#include "util/strings.h"

namespace rootsim::obs {

std::string labels_to_string(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first;
    out += "=";
    out += labels[i].second;
  }
  out += "}";
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += util::format("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

void Histogram::observe(uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.observe(value);
}

void Histogram::merge_from(const Histogram& other) {
  const LogLinearHistogram theirs = other.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.merge_from(theirs);
}

LogLinearHistogram Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_;
}

namespace {

LabelSet normalize(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = series_[Key{std::string(name), normalize(std::move(labels))}];
  if (!entry.counter) {
    entry.kind = MetricSample::Kind::Counter;
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, LabelSet labels,
                              bool volatile_metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = series_[Key{std::string(name), normalize(std::move(labels))}];
  if (!entry.gauge) {
    entry.kind = MetricSample::Kind::Gauge;
    entry.volatile_metric = volatile_metric;
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = series_[Key{std::string(name), normalize(std::move(labels))}];
  if (!entry.histogram) {
    entry.kind = MetricSample::Kind::Histogram;
    entry.histogram = std::make_unique<Histogram>();
  }
  return *entry.histogram;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Collect stable handles under the source lock, then apply under our own
  // (taken inside the registration helpers) — the two locks are never held
  // together, so merging between live registries cannot deadlock. Handles
  // stay valid after the source lock drops (registry entries never move),
  // and shard registries are quiescent by the time they are merged.
  struct Pending {
    Key key;
    MetricSample::Kind kind = MetricSample::Kind::Counter;
    bool volatile_metric = false;
    uint64_t count = 0;
    double value = 0;
    const Histogram* histogram = nullptr;
  };
  std::vector<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    pending.reserve(other.series_.size());
    for (const auto& [key, entry] : other.series_) {
      Pending p;
      p.key = key;
      p.kind = entry.kind;
      p.volatile_metric = entry.volatile_metric;
      switch (entry.kind) {
        case MetricSample::Kind::Counter:
          p.count = entry.counter->value();
          break;
        case MetricSample::Kind::Gauge:
          p.value = entry.gauge->value();
          break;
        case MetricSample::Kind::Histogram:
          p.histogram = entry.histogram.get();
          break;
      }
      pending.push_back(std::move(p));
    }
  }
  for (const Pending& p : pending) {
    switch (p.kind) {
      case MetricSample::Kind::Counter:
        // Register even at zero: a serial run creates the series the moment
        // a handle is resolved, and exports list zero-valued series.
        counter(p.key.name, p.key.labels).inc(p.count);
        break;
      case MetricSample::Kind::Gauge:
        gauge(p.key.name, p.key.labels, p.volatile_metric).set_max(p.value);
        break;
      case MetricSample::Kind::Histogram:
        histogram(p.key.name, p.key.labels).merge_from(*p.histogram);
        break;
    }
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot(bool include_volatile) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(series_.size());
  for (const auto& [key, entry] : series_) {
    if (entry.volatile_metric && !include_volatile) continue;
    MetricSample sample;
    sample.name = key.name;
    sample.labels = key.labels;
    sample.kind = entry.kind;
    sample.volatile_metric = entry.volatile_metric;
    switch (entry.kind) {
      case MetricSample::Kind::Counter:
        sample.count = entry.counter->value();
        break;
      case MetricSample::Kind::Gauge:
        sample.value = entry.gauge->value();
        break;
      case MetricSample::Kind::Histogram:
        sample.histogram = entry.histogram->snapshot();
        break;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::string sample_to_text(const MetricSample& sample) {
  std::string line = sample.name + labels_to_string(sample.labels);
  switch (sample.kind) {
    case MetricSample::Kind::Counter:
      line += util::format(" %llu", static_cast<unsigned long long>(sample.count));
      break;
    case MetricSample::Kind::Gauge:
      line += util::format(" %.3f", sample.value);
      break;
    case MetricSample::Kind::Histogram: {
      const LogLinearHistogram& h = sample.histogram;
      line += util::format(" count=%llu sum=%llu max=%llu",
                           static_cast<unsigned long long>(h.count()),
                           static_cast<unsigned long long>(h.sum()),
                           static_cast<unsigned long long>(h.max()));
      line += util::format(" p50=%.1f p90=%.1f p99=%.1f p999=%.1f",
                           h.quantile(0.50), h.quantile(0.90),
                           h.quantile(0.99), h.quantile(0.999));
      break;
    }
  }
  return line;
}

std::string sample_to_json(const MetricSample& sample) {
  std::string out = "{\"metric\":\"" + json_escape(sample.name) + "\"";
  if (!sample.labels.empty()) {
    out += ",\"labels\":{";
    for (size_t i = 0; i < sample.labels.size(); ++i) {
      if (i) out += ",";
      out += "\"" + json_escape(sample.labels[i].first) + "\":\"" +
             json_escape(sample.labels[i].second) + "\"";
    }
    out += "}";
  }
  switch (sample.kind) {
    case MetricSample::Kind::Counter:
      out += util::format(",\"type\":\"counter\",\"value\":%llu",
                          static_cast<unsigned long long>(sample.count));
      break;
    case MetricSample::Kind::Gauge:
      out += util::format(",\"type\":\"gauge\",\"value\":%.3f", sample.value);
      break;
    case MetricSample::Kind::Histogram: {
      // to_json()'s fields, spliced in after the type: "{...}" -> "...".
      const std::string fields = sample.histogram.to_json();
      out += ",\"type\":\"histogram\",";
      out.append(fields, 1, fields.size() - 2);
      break;
    }
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::to_text(bool include_volatile) const {
  std::string out;
  for (const MetricSample& sample : snapshot(include_volatile)) {
    out += sample_to_text(sample);
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::to_jsonl(bool include_volatile) const {
  std::string out;
  for (const MetricSample& sample : snapshot(include_volatile)) {
    out += sample_to_json(sample);
    out += "\n";
  }
  return out;
}

uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, entry] : series_)
    if (key.name == name && entry.counter) total += entry.counter->value();
  return total;
}

uint64_t MetricsRegistry::counter_value(std::string_view name,
                                        const LabelSet& labels) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(Key{std::string(name), sorted});
  if (it == series_.end() || !it->second.counter) return 0;
  return it->second.counter->value();
}

}  // namespace rootsim::obs
