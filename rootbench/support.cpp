#include "support.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace rootbench {

void Report::fail(const std::string& why) {
  // The first few reasons say what broke; the count says how often.
  if (++failed <= 3) note("CHECK FAILED: " + why);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':')
      return std::strtod(line.c_str() + length + 1, nullptr) / 1024.0;  // kB
  }
  return 0;
}

}  // namespace

double current_rss_mb() { return status_field_mb("VmRSS"); }
double peak_rss_mb() { return status_field_mb("VmHWM"); }
void trim_heap() { malloc_trim(0); }

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

void Digest::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 0x100000001b3ull;
  }
  // Field separator, so ("ab","c") and ("a","bc") differ.
  state_ ^= 0xff;
  state_ *= 0x100000001b3ull;
}

void Digest::add(uint64_t value) {
  char buffer[8];
  std::memcpy(buffer, &value, sizeof buffer);
  add(std::string_view(buffer, sizeof buffer));
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint32_t SpanLog::open(std::string name, uint32_t parent) {
  if (!enabled_) return 0;
  const int64_t start = nanos_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::move(name);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ns = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(uint32_t id) {
  if (id == 0) return;
  const int64_t end = nanos_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(id - 1);
  span.duration_ns = end - span.start_ns;
}

void SpanLog::add_aggregate(std::string name, uint32_t parent,
                            int64_t total_ns, uint64_t calls) {
  if (!enabled_ || calls == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::move(name);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.duration_ns = total_ns;
  span.calls = calls;
  span.aggregate = true;
  spans_.push_back(std::move(span));
}

double SpanLog::duration_ms(uint32_t id) const {
  if (id == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(spans_.at(id - 1).duration_ns) / 1e6;
}

std::map<std::string, double> SpanLog::self_ms_by_layer(uint32_t root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (const Span& span : spans_) children[span.parent].push_back(span.id);

  std::map<std::string, double> self_ms;
  std::vector<uint32_t> stack{root};
  while (!stack.empty()) {
    const Span& span = spans_.at(stack.back() - 1);
    stack.pop_back();
    const int64_t begin = span.start_ns;
    const int64_t end = span.start_ns + span.duration_ns;
    int64_t covered = 0;
    std::vector<std::pair<int64_t, int64_t>> intervals;
    for (uint32_t child_id : children[span.id]) {
      const Span& child = spans_[child_id - 1];
      stack.push_back(child_id);
      if (child.aggregate) {
        covered += child.duration_ns;
      } else {
        intervals.emplace_back(std::max(begin, child.start_ns),
                               std::min(end, child.start_ns + child.duration_ns));
      }
    }
    // Union of (possibly parallel, overlapping) interval children.
    std::sort(intervals.begin(), intervals.end());
    int64_t reach = begin;
    for (const auto& [from, to] : intervals) {
      const int64_t lo = std::max(from, reach);
      if (to > lo) covered += to - lo;
      reach = std::max(reach, to);
    }
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self_ms[layer] +=
        static_cast<double>(std::max<int64_t>(0, span.duration_ns - covered)) /
        1e6;
  }
  return self_ms;
}

std::string SpanLog::to_json() const {
  std::vector<uint32_t> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_)
      if (span.parent == 0) roots.push_back(span.id);
  }
  std::ostringstream out;
  out << "{\"roots\": [";
  for (size_t i = 0; i < roots.size(); ++i) {
    const auto self = self_ms_by_layer(roots[i]);
    std::lock_guard<std::mutex> lock(mu_);
    const Span& root = spans_[roots[i] - 1];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << root.id
        << ", \"name\": " << json_string(root.name)
        << ", \"wall_ms\": " << json_number(root.duration_ns / 1e6)
        << ", \"self_ms_by_layer\": {";
    size_t k = 0;
    for (const auto& [layer, ms] : self)
      out << (k++ ? ", " : "") << json_string(layer) << ": " << json_number(ms);
    out << "}}";
  }
  out << "],\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << span.id
        << ", \"parent\": " << span.parent
        << ", \"name\": " << json_string(span.name)
        << ", \"start_ns\": " << span.start_ns
        << ", \"duration_ns\": " << span.duration_ns
        << ", \"calls\": " << span.calls
        << ", \"aggregate\": " << (span.aggregate ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, uint32_t parent)
    : log_(log) {
  if (log_) id_ = log_->open(std::move(name), parent);
}

ScopedSpan::~ScopedSpan() {
  if (log_) log_->close(id_);
}

void CallTimer::record(int64_t ns) {
  if (keep_samples_) samples_us_.push_back(static_cast<double>(ns) / 1e3);
  ++total_calls_;
  total_ns_ += ns;
  pending_ns_ += ns;
  ++pending_calls_;
}

void CallTimer::flush(SpanLog& log, uint32_t parent) {
  log.add_aggregate(name_, parent, pending_ns_, pending_calls_);
  pending_ns_ = 0;
  pending_calls_ = 0;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace rootbench
