#include "obs/rssac002.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"  // json_escape
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::obs {

void UniqueSourceSketch::insert(uint64_t source_id) {
  // splitmix64 as the hash: deterministic, well-mixed, already in-tree.
  uint64_t state = source_id;
  const uint64_t hash = util::splitmix64(state);
  const uint64_t bit = hash % kBits;
  words_[bit / 64] |= uint64_t{1} << (bit % 64);
}

void UniqueSourceSketch::merge_from(const UniqueSourceSketch& other) {
  for (size_t i = 0; i < kBits / 64; ++i) words_[i] |= other.words_[i];
}

uint64_t UniqueSourceSketch::bits_set() const {
  uint64_t set = 0;
  for (uint64_t word : words_) set += std::popcount(word);
  return set;
}

uint64_t UniqueSourceSketch::estimate() const {
  const uint64_t zeros = kBits - bits_set();
  const double m = static_cast<double>(kBits);
  if (zeros == 0) return static_cast<uint64_t>(std::llround(m * std::log(m)));
  return static_cast<uint64_t>(
      std::llround(m * std::log(m / static_cast<double>(zeros))));
}

void Rssac002Collector::Day::merge_from(const Day& other) {
  for (int proto = 0; proto < 2; ++proto)
    for (int family = 0; family < 2; ++family) {
      queries[proto][family] += other.queries[proto][family];
      responses[proto][family] += other.responses[proto][family];
    }
  for (size_t i = 0; i <= kRcodeSlots; ++i) rcodes[i] += other.rcodes[i];
  truncated += other.truncated;
  axfr_served += other.axfr_served;
  query_size.merge_from(other.query_size);
  udp_response_size.merge_from(other.udp_response_size);
  tcp_response_size.merge_from(other.tcp_response_size);
  sources[0].merge_from(other.sources[0]);
  sources[1].merge_from(other.sources[1]);
}

uint64_t Rssac002Collector::Day::total_queries() const {
  uint64_t total = 0;
  for (int proto = 0; proto < 2; ++proto)
    for (int family = 0; family < 2; ++family) total += queries[proto][family];
  return total;
}

void Rssac002Collector::record(const Rssac002Sample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  Day& day = days_[{std::string(sample.instance), util::day_start(sample.when)}];
  const int family = sample.v6 ? 1 : 0;
  day.queries[0][family] += sample.udp_queries;
  day.queries[1][family] += sample.tcp_queries;
  // In the simulation every query the server receives is answered; the
  // responses a lossy path then eats were still *sent* (RSSAC002 counts the
  // server's side of the wire).
  day.responses[0][family] += sample.udp_queries;
  day.responses[1][family] += sample.tcp_queries;
  if (sample.truncated) ++day.truncated;
  if (sample.axfr && sample.delivered) ++day.axfr_served;
  if (sample.udp_queries || sample.tcp_queries) {
    day.query_size.observe(sample.query_bytes);
    day.sources[family].insert(sample.source_id);
  }
  if (sample.delivered) {
    const size_t slot = std::min<size_t>(sample.rcode, Day::kRcodeSlots);
    ++day.rcodes[slot];
    (sample.final_tcp ? day.tcp_response_size : day.udp_response_size)
        .observe(sample.response_bytes);
  }
}

void Rssac002Collector::merge_from(const Rssac002Collector& other) {
  // Snapshot the source under its own lock, fold under ours; the locks are
  // never held together (same discipline as MetricsRegistry::merge_from).
  auto records = other.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, day] : records) days_[key].merge_from(day);
}

void Rssac002Collector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  days_.clear();
}

bool Rssac002Collector::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return days_.empty();
}

size_t Rssac002Collector::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return days_.size();
}

std::vector<std::pair<std::pair<std::string, util::UnixTime>,
                      Rssac002Collector::Day>>
Rssac002Collector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {days_.begin(), days_.end()};
}

std::string Rssac002Collector::to_jsonl(const std::string& scenario) const {
  std::string out;
  if (!scenario.empty()) out += "{\"scenario\":\"" + scenario + "\"}\n";
  for (const auto& [key, day] : snapshot()) {
    const auto& [instance, day_start] = key;
    out += "{\"instance\":\"" + json_escape(instance) + "\"";
    out += ",\"day\":\"" + util::format_date(day_start) + "\"";
    static const char* kProto[2] = {"udp", "tcp"};
    static const char* kFamily[2] = {"ipv4", "ipv6"};
    for (int proto = 0; proto < 2; ++proto)
      for (int family = 0; family < 2; ++family)
        out += util::format(
            ",\"dns-%s-queries-received-%s\":%llu", kProto[proto],
            kFamily[family],
            static_cast<unsigned long long>(day.queries[proto][family]));
    for (int proto = 0; proto < 2; ++proto)
      for (int family = 0; family < 2; ++family)
        out += util::format(
            ",\"dns-%s-responses-sent-%s\":%llu", kProto[proto],
            kFamily[family],
            static_cast<unsigned long long>(day.responses[proto][family]));
    out += ",\"rcode-volume\":{";
    bool first = true;
    for (size_t slot = 0; slot <= Day::kRcodeSlots; ++slot) {
      if (!day.rcodes[slot]) continue;
      if (!first) out += ",";
      first = false;
      out += slot == Day::kRcodeSlots
                 ? util::format("\"other\":%llu", static_cast<unsigned long long>(
                                                      day.rcodes[slot]))
                 : util::format("\"%zu\":%llu", slot,
                                static_cast<unsigned long long>(
                                    day.rcodes[slot]));
    }
    out += "}";
    out += util::format(",\"dns-responses-truncated\":%llu",
                        static_cast<unsigned long long>(day.truncated));
    out += util::format(",\"axfr-served\":%llu",
                        static_cast<unsigned long long>(day.axfr_served));
    out += ",\"query-size\":" + day.query_size.to_json();
    out += ",\"udp-response-size\":" + day.udp_response_size.to_json();
    out += ",\"tcp-response-size\":" + day.tcp_response_size.to_json();
    out += util::format(",\"num-sources-ipv4\":%llu,\"num-sources-ipv6\":%llu",
                        static_cast<unsigned long long>(day.sources[0].estimate()),
                        static_cast<unsigned long long>(day.sources[1].estimate()));
    out += "}\n";
  }
  return out;
}

bool Rssac002Collector::write_jsonl(const std::string& path,
                                    const std::string& scenario) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::string body = to_jsonl(scenario);
  const bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace rootsim::obs
