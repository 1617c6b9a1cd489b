#include "netsim/flight_recorder.h"

#include "dns/rdata.h"
#include "obs/metrics.h"  // json_escape
#include "util/strings.h"

namespace rootsim::netsim {

std::string_view to_string(FlightRecord::Cause cause) {
  switch (cause) {
    case FlightRecord::Cause::Ok: return "ok";
    case FlightRecord::Cause::Timeout: return "timeout";
    case FlightRecord::Cause::TcpRefused: return "tcp-refused";
    case FlightRecord::Cause::Refused: return "refused";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

void FlightRecorder::record(FlightRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.root_index >= 0 &&
      record.root_index < static_cast<int>(kSummaryRoots)) {
    const size_t family = record.family == util::IpFamily::V6 ? 1 : 0;
    SummaryCell& cell =
        summary_[(static_cast<size_t>(record.root_index) * 2 + family) *
                     kSummaryCauses +
                 static_cast<size_t>(record.cause)];
    if (cell.count == 0 || record.when < cell.first) cell.first = record.when;
    if (cell.count == 0 || record.when > cell.last) cell.last = record.when;
    ++cell.count;
  }
  if (ring_.size() >= capacity_) ring_.pop_front();
  ++recorded_;
  ring_.push_back(std::move(record));
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

FlightFailureSummary FlightRecorder::failure_summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  FlightFailureSummary summary;
  for (size_t root = 0; root < kSummaryRoots; ++root) {
    for (size_t family = 0; family < 2; ++family) {
      for (size_t cause = 0; cause < kSummaryCauses; ++cause) {
        if (static_cast<FlightRecord::Cause>(cause) == FlightRecord::Cause::Ok)
          continue;
        const SummaryCell& cell =
            summary_[(root * 2 + family) * kSummaryCauses + cause];
        if (cell.count == 0) continue;
        FlightFailureSummary::Entry entry;
        entry.root_index = static_cast<int>(root);
        entry.v6 = family == 1;
        entry.cause = static_cast<FlightRecord::Cause>(cause);
        entry.count = cell.count;
        entry.first = cell.first;
        entry.last = cell.last;
        summary.entries.push_back(entry);
      }
    }
  }
  return summary;
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  for (const FlightRecord& record : records()) {
    out += util::format(
        "{\"op\":\"%s\",\"cause\":\"%.*s\"",
        record.op == FlightRecord::Op::Axfr ? "axfr" : "query",
        static_cast<int>(to_string(record.cause).size()),
        to_string(record.cause).data());
    out += util::format(
        ",\"vp\":%u,\"root\":%d,\"family\":\"v%d\",\"round\":%llu,\"site\":%u",
        record.vp_id, record.root_index,
        record.family == util::IpFamily::V4 ? 4 : 6,
        static_cast<unsigned long long>(record.round), record.site_id);
    if (!record.qname.empty()) {
      out += ",\"qname\":\"" + obs::json_escape(record.qname) + "\"";
      out += ",\"qtype\":\"" +
             dns::rrtype_to_string(static_cast<dns::RRType>(record.qtype)) +
             "\"";
    }
    if (record.truncated_retry) out += ",\"truncated_retry\":true";
    out += util::format(
        ",\"t\":%lld,\"udp_attempts\":%u,\"tcp_attempts\":%u,\"drops\":%u",
        static_cast<long long>(record.when), record.udp_attempts,
        record.tcp_attempts, record.drops);
    out += util::format(
        ",\"bytes_sent\":%llu,\"bytes_received\":%llu,\"time_ms\":%.3f}\n",
        static_cast<unsigned long long>(record.bytes_sent),
        static_cast<unsigned long long>(record.bytes_received),
        record.time_ms);
  }
  return out;
}

}  // namespace rootsim::netsim
