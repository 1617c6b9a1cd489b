#include "obs/slo.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "obs/metrics.h"  // json_escape
#include "util/strings.h"

namespace rootsim::obs {

namespace {

/// The sum of one histogram's counts over the cells inside a sliding
/// window, dense over LogLinearHistogram's fixed layout: a count per bucket
/// and a total per octave, the 16 unit buckets counting as octave 0. A cell
/// enters and leaves through its few occupied buckets, and a quantile skips
/// the whole octaves below its rank, then scans the one octave that holds
/// it.
class WindowSum {
 public:
  void add(const LogLinearHistogram& histogram) {
    histogram.for_each_bucket([this](uint32_t index, uint64_t count) {
      buckets_[index] += count;
      octaves_[index / kSub] += count;
    });
    count_ += histogram.count();
  }
  void subtract(const LogLinearHistogram& histogram) {
    histogram.for_each_bucket([this](uint32_t index, uint64_t count) {
      buckets_[index] -= count;
      octaves_[index / kSub] -= count;
    });
    count_ -= histogram.count();
  }
  uint64_t count() const { return count_; }

  /// LogLinearHistogram::quantile(q) of the merged cells, bit for bit, for
  /// q < 1 (the sweep reads p50 and p95).
  double quantile(double q) const {
    if (count_ == 0) return 0;
    const LogLinearHistogram::QuantileRank rank(q, count_);
    uint64_t below = 0;
    uint32_t octave = 0;
    while (octave + 1 < kOctaves && !rank.within(below + octaves_[octave]))
      below += octaves_[octave++];
    uint32_t index = octave * kSub;
    while (index + 1 < (octave + 1) * kSub &&
           !rank.within(below + buckets_[index]))
      below += buckets_[index++];
    return rank.value_in(index, below, buckets_[index]);
  }

 private:
  static constexpr uint32_t kSub = LogLinearHistogram::kSubBuckets;
  static constexpr uint32_t kOctaves = LogLinearHistogram::kBucketCount / kSub;
  std::array<uint64_t, LogLinearHistogram::kBucketCount> buckets_{};
  std::array<uint64_t, kOctaves> octaves_{};
  uint64_t count_ = 0;
};

// slo.jsonl's fields are written with to_chars, whose fixed-precision form
// is defined as printf's %.*f in the C locale, into a stack buffer sized for
// the widest line: twenty-digit counts, and doubles up to DBL_MAX (309
// integer digits, a sign, the point and six decimals).
constexpr size_t kCountChars = 20;
constexpr size_t kFixedChars = 1 + 309 + 1 + 6;
constexpr size_t kLineChars =
    512 + 2 * util::kDatetimeBufferSize + 7 * kCountChars + 5 * kFixedChars;

char* put(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

char* put_count(char* out, uint64_t value) {
  return std::to_chars(out, out + kCountChars, value).ptr;
}

char* put_fixed(char* out, double value, int precision) {
  return std::to_chars(out, out + kFixedChars, value,
                       std::chars_format::fixed, precision)
      .ptr;
}

/// Writes one window's slo.jsonl line, newline included, to `out`, which
/// has room for kLineChars; returns one past its last character.
char* put_line(char* out, const SloWindow& w) {
  char* p = put(out, "{\"letter\":\"");
  *p++ = static_cast<char>('a' + w.root);
  p = put(p, w.v6 ? "\",\"family\":\"v6" : "\",\"family\":\"v4");
  p = put(p, "\",\"start\":\"");
  p = util::write_datetime(p, w.start);
  p = put(p, "\",\"end\":\"");
  p = util::write_datetime(p, w.end);
  p = put(p, "\",\"probes\":");
  p = put_count(p, w.probes);
  p = put(p, ",\"answered\":");
  p = put_count(p, w.answered);
  p = put(p, ",\"availability\":");
  p = put_fixed(p, w.availability, 6);
  p = put(p, ",\"rtt_p50_ms\":");
  p = put_fixed(p, w.rtt_p50_ms, 3);
  p = put(p, ",\"rtt_p95_ms\":");
  p = put_fixed(p, w.rtt_p95_ms, 3);
  p = put(p, ",\"publication_count\":");
  p = put_count(p, w.publication_count);
  p = put(p, ",\"publication_p95_s\":");
  p = put_fixed(p, w.publication_p95_s, 0);
  p = put(p, ",\"staleness_count\":");
  p = put_count(p, w.staleness_count);
  p = put(p, ",\"staleness_max_s\":");
  p = put_fixed(p, w.staleness_max_s, 0);
  p = put(p, ",\"integrity_checks\":");
  p = put_count(p, w.integrity_checks);
  p = put(p, ",\"integrity_ok\":");
  p = put_count(p, w.integrity_ok);
  p = put(p, w.evaluated ? ",\"evaluated\":true,\"breaches\":["
                         : ",\"evaluated\":false,\"breaches\":[");
  bool first = true;
  for (size_t m = 0; m < kSloMetricCount; ++m) {
    if (!(w.breaches & (1u << m))) continue;
    if (!first) *p++ = ',';
    first = false;
    *p++ = '"';
    p = put(p, to_string(static_cast<SloMetric>(m)));
    *p++ = '"';
  }
  return put(p, "]}\n");
}

}  // namespace

std::string_view to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::Availability: return "availability";
    case SloMetric::Latency: return "latency";
    case SloMetric::Publication: return "publication";
    case SloMetric::Staleness: return "staleness";
    case SloMetric::Integrity: return "integrity";
  }
  return "?";
}

int64_t SloCollector::bucket_index(util::UnixTime t) {
  // Floor division: simulated times are positive in practice, but keep the
  // mapping total so a fuzzer-supplied sample cannot split a bucket boundary.
  int64_t q = t / kBucketSeconds;
  if (t % kBucketSeconds < 0) --q;
  return q;
}

util::UnixTime SloCollector::bucket_start(int64_t index) {
  return index * kBucketSeconds;
}

void SloCollector::Cell::merge_from(const Cell& other) {
  probes += other.probes;
  answered += other.answered;
  rtt_us.merge_from(other.rtt_us);
  publication_s.merge_from(other.publication_s);
  staleness_s.merge_from(other.staleness_s);
  integrity_checks += other.integrity_checks;
  integrity_ok += other.integrity_ok;
}

void SloCollector::Cell::clear() {
  probes = 0;
  answered = 0;
  rtt_us.clear();
  publication_s.clear();
  staleness_s.clear();
  integrity_checks = 0;
  integrity_ok = 0;
}

void SloCollector::Cell::record(const SloSample& sample) {
  switch (sample.kind) {
    case SloSample::Kind::Availability:
      ++probes;
      if (sample.ok) ++answered;
      break;
    case SloSample::Kind::Latency:
      // Microsecond resolution keeps the log-linear relative error (~3 %)
      // meaningful for single-digit-millisecond RTTs.
      rtt_us.observe(static_cast<uint64_t>(
          std::llround(std::max(0.0, sample.value) * 1000.0)));
      break;
    case SloSample::Kind::Publication:
      publication_s.observe(static_cast<uint64_t>(
          std::llround(std::max(0.0, sample.value))));
      break;
    case SloSample::Kind::Staleness:
      staleness_s.observe(static_cast<uint64_t>(
          std::llround(std::max(0.0, sample.value))));
      break;
    case SloSample::Kind::Integrity:
      ++integrity_checks;
      if (sample.ok) ++integrity_ok;
      break;
  }
}

void SloCollector::record(const SloSample& sample) {
  if (sample.root >= kSloRoots) return;
  std::lock_guard<std::mutex> lock(mu_);
  cells_[{sample.root, static_cast<uint8_t>(sample.v6 ? 1 : 0),
          bucket_index(sample.when)}]
      .record(sample);
}

void SloCollector::merge_from(const SloCollector& other) {
  // Snapshot the source under its own lock, fold under ours; the locks are
  // never held together (same discipline as Rssac002Collector::merge_from).
  auto cells = other.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, cell] : cells) cells_[key].merge_from(cell);
}

size_t SloCollector::cell_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

std::vector<std::pair<SloCollector::CellKey, SloCollector::Cell>>
SloCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {cells_.begin(), cells_.end()};
}

std::vector<SloWindow> SloCollector::windows(
    const SloThresholds& thresholds) const {
  // Streams in key order, (root, family): the order the map holds them in.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloWindow> out;
  for (uint8_t root = 0; root < kSloRoots; ++root) {
    for (const bool v6 : {false, true}) {
      const std::vector<BucketCell> cells = stream_cells(root, v6);
      if (cells.empty()) continue;
      const int64_t first = cells.front().first;
      const size_t at = out.size();
      out.resize(at + static_cast<size_t>(cells.back().first - first + 1));
      sweep(thresholds, root, v6, cells, first, out.data() + at);
    }
  }
  return out;
}

SloCollector::Drain::Drain(const SloThresholds& thresholds,
                           int64_t first_bucket, size_t buckets)
    : thresholds_(thresholds),
      first_bucket_(first_bucket),
      buckets_(buckets),
      windows_(kSloRoots * 2 * buckets) {
  for (Stream& stream : streams_) stream.fed = first_bucket;
}

void SloCollector::Drain::add(uint8_t root, bool v6, int64_t first_bucket,
                              std::span<const Cell> cells) {
  const int64_t end = first_bucket_ + static_cast<int64_t>(buckets_);
  const size_t index = static_cast<size_t>(root) * 2 + (v6 ? 1 : 0);
  // Checked in every build: the windows are written by slot index, so a run
  // past the timeline would write past windows_.
  if (root >= kSloRoots || first_bucket < streams_[index].fed ||
      first_bucket > end ||
      cells.size() > static_cast<uint64_t>(end - first_bucket))
    util::fatal(
        "SloCollector::Drain: a run of %zu buckets from bucket %lld of root "
        "%u lies outside the timeline [%lld, %lld) or before the end of its "
        "stream's previous run",
        cells.size(), static_cast<long long>(first_bucket),
        static_cast<unsigned>(root), static_cast<long long>(first_bucket_),
        static_cast<long long>(end));
  Stream& stream = streams_[index];
  stream.fed = first_bucket + static_cast<int64_t>(cells.size());

  // The carried cells, then the run's non-empty ones: the stream's cells in
  // bucket order, from the oldest a window at the cursor reads.
  std::vector<BucketCell> run;
  run.reserve(stream.carry.size() + cells.size());
  for (const auto& [bucket, cell] : stream.carry) run.emplace_back(bucket, &cell);
  Totals& totals = stream.totals;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (cell.empty()) continue;
    run.emplace_back(first_bucket + static_cast<int64_t>(i), &cell);
    totals.probes += cell.probes;
    totals.answered += cell.answered;
    totals.latency_count += cell.rtt_us.count();
    totals.publication_count += cell.publication_s.count();
    totals.staleness_count += cell.staleness_s.count();
    totals.integrity_checks += cell.integrity_checks;
    totals.integrity_ok += cell.integrity_ok;
  }
  // Silent buckets wait for the stream's next cell: a stream's windows end
  // at its last one.
  if (run.size() == stream.carry.size()) return;
  if (stream.next == kNotStarted) stream.begin = stream.next = run.front().first;
  const int64_t from = stream.next;
  stream.next = from + static_cast<int64_t>(sweep(
                           thresholds_, root, v6, run, from,
                           windows_.data() + index * buckets_ +
                               (from - first_bucket_)));

  // Keep the cells a window from the new cursor on still reads.
  const int64_t keep_from =
      stream.next -
      static_cast<int64_t>(std::max<size_t>(1, thresholds_.window_buckets)) + 1;
  std::erase_if(stream.carry,
                [&](const auto& carried) { return carried.first < keep_from; });
  for (int64_t bucket = std::max(keep_from, first_bucket);
       bucket < stream.fed; ++bucket) {
    const Cell& cell = cells[static_cast<size_t>(bucket - first_bucket)];
    if (!cell.empty()) stream.carry.emplace_back(bucket, cell);
  }
}

std::vector<SloWindow> SloCollector::Drain::take_windows() {
  // Each stream's windows are the slots of its [begin, next) buckets; move
  // the runs down, in stream order, over the slots no window reached.
  size_t size = 0;
  for (size_t index = 0; index < streams_.size(); ++index) {
    const Stream& stream = streams_[index];
    if (stream.next == kNotStarted) continue;
    const auto run = windows_.begin() +
                     static_cast<std::ptrdiff_t>(index * buckets_) +
                     (stream.begin - first_bucket_);
    const auto count = static_cast<size_t>(stream.next - stream.begin);
    if (run != windows_.begin() + static_cast<std::ptrdiff_t>(size))
      std::copy(run, run + static_cast<std::ptrdiff_t>(count),
                windows_.begin() + static_cast<std::ptrdiff_t>(size));
    size += count;
  }
  windows_.resize(size);
  return std::move(windows_);
}

const SloCollector::Drain::Totals& SloCollector::Drain::totals(
    uint8_t root, bool v6) const {
  return streams_[root * 2 + (v6 ? 1 : 0)].totals;
}

size_t SloCollector::Drain::carried(uint8_t root, bool v6) const {
  return streams_[root * 2 + (v6 ? 1 : 0)].carry.size();
}

std::vector<SloCollector::BucketCell> SloCollector::stream_cells(
    uint8_t root, bool v6) const {
  const uint8_t family = v6 ? 1 : 0;
  std::vector<BucketCell> cells;
  for (auto it = cells_.lower_bound(
           {root, family, std::numeric_limits<int64_t>::min()});
       it != cells_.end() && std::get<0>(it->first) == root &&
       std::get<1>(it->first) == family;
       ++it)
    cells.emplace_back(std::get<2>(it->first), &it->second);
  return cells;
}

size_t SloCollector::sweep(const SloThresholds& thresholds, uint8_t root,
                           bool v6, std::span<const BucketCell> cells,
                           int64_t from, SloWindow* out) {
  const size_t window = std::max<size_t>(1, thresholds.window_buckets);
  const int64_t last_bucket = cells.back().first;

  // The stream's cells inside the trailing window [bucket - window + 1,
  // bucket] are the run [front, back); cells are sparse, so both ends
  // slide by key, not by count. Each cell is added to the window's sums as
  // it enters and subtracted as it leaves: running counts, and dense sums
  // of the RTT and publication histograms (16.6 KB, a local of this sweep).
  // All are integers, so every window holds exactly the counts a fresh
  // merge of its cells would. The staleness max cannot be subtracted, so
  // it is read from the run's cells.
  size_t front = 0;
  size_t back = 0;
  size_t count = 0;
  uint64_t probes = 0;
  uint64_t answered = 0;
  uint64_t staleness_count = 0;
  uint64_t integrity_checks = 0;
  uint64_t integrity_ok = 0;
  WindowSum rtt_us;
  WindowSum publication_s;
  for (int64_t bucket = from; bucket <= last_bucket; ++bucket) {
    for (; back < cells.size() && cells[back].first <= bucket; ++back) {
      const Cell& cell = *cells[back].second;
      probes += cell.probes;
      answered += cell.answered;
      rtt_us.add(cell.rtt_us);
      publication_s.add(cell.publication_s);
      staleness_count += cell.staleness_s.count();
      integrity_checks += cell.integrity_checks;
      integrity_ok += cell.integrity_ok;
    }
    for (; front < back &&
           cells[front].first <= bucket - static_cast<int64_t>(window);
         ++front) {
      const Cell& cell = *cells[front].second;
      probes -= cell.probes;
      answered -= cell.answered;
      rtt_us.subtract(cell.rtt_us);
      publication_s.subtract(cell.publication_s);
      staleness_count -= cell.staleness_s.count();
      integrity_checks -= cell.integrity_checks;
      integrity_ok -= cell.integrity_ok;
    }
    uint64_t staleness_max = 0;
    for (size_t k = front; k < back; ++k)
      staleness_max = std::max(staleness_max, cells[k].second->staleness_s.max());

    SloWindow w;
    w.root = root;
    w.v6 = v6;
    w.start = bucket_start(bucket - static_cast<int64_t>(window) + 1);
    w.end = bucket_start(bucket + 1);
    w.probes = probes;
    w.answered = answered;
    w.availability =
        probes ? static_cast<double>(answered) / probes : 1.0;
    w.latency_count = rtt_us.count();
    w.rtt_p50_ms = rtt_us.quantile(0.5) / 1000.0;
    w.rtt_p95_ms = rtt_us.quantile(0.95) / 1000.0;
    w.publication_count = publication_s.count();
    w.publication_p95_s = publication_s.quantile(0.95);
    w.staleness_count = staleness_count;
    w.staleness_max_s = static_cast<double>(staleness_max);
    w.integrity_checks = integrity_checks;
    w.integrity_ok = integrity_ok;
    w.evaluated = probes >= thresholds.min_probes;
    if (w.evaluated) {
      if (w.availability < thresholds.availability_min)
        w.breaches |= 1u << static_cast<unsigned>(SloMetric::Availability);
      if (w.latency_count > 0 && w.rtt_p95_ms > thresholds.rtt_p95_max_ms)
        w.breaches |= 1u << static_cast<unsigned>(SloMetric::Latency);
      if (w.publication_count > 0 &&
          w.publication_p95_s > thresholds.publication_p95_max_s)
        w.breaches |= 1u << static_cast<unsigned>(SloMetric::Publication);
      if (w.staleness_count > 0 &&
          w.staleness_max_s > thresholds.staleness_max_s)
        w.breaches |= 1u << static_cast<unsigned>(SloMetric::Staleness);
      if (w.integrity_checks > 0 &&
          static_cast<double>(w.integrity_ok) / w.integrity_checks <
              thresholds.integrity_min)
        w.breaches |= 1u << static_cast<unsigned>(SloMetric::Integrity);
    }
    out[count++] = w;
  }
  return count;
}

std::string SloCollector::windows_to_jsonl(std::span<const SloWindow> windows,
                                           const std::string& scenario) {
  std::string out;
  if (!scenario.empty())
    out += "{\"scenario\":\"" + json_escape(scenario) + "\"}\n";
  char line[kLineChars];
  for (const SloWindow& w : windows) out.append(line, put_line(line, w));
  return out;
}

size_t SloCollector::write_window_lines(std::span<const SloWindow> windows,
                                        char* out) {
  size_t bytes = 0;
  char line[kLineChars];
  for (const SloWindow& w : windows) {
    const size_t size = static_cast<size_t>(put_line(line, w) - line);
    if (out) std::copy(line, line + size, out + bytes);
    bytes += size;
  }
  return bytes;
}

}  // namespace rootsim::obs
