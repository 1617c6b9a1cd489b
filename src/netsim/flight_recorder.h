// Transport flight recorder: a bounded ring of recent exchanges.
//
// When a probe fails in a large campaign, the aggregate counters say *that*
// exchanges timed out but not *which* ones or *why*. The flight recorder
// keeps the last N exchanges — path coordinates, cause code, attempt/drop
// counts, byte and time cost — so a failed query can be post-mortemed from
// the ring dump (rootdig does exactly that on failure).
//
// Attach one by pointing TransportConfig::flight_recorder at it; the
// transport records every exchange() / axfr() completion. With no recorder
// attached the transport pays one null-pointer branch per exchange.
//
// Concurrency: a recorder is one ring under one mutex, so any thread may
// record into it; the parallel loops (the zone audit, the SLO timeline)
// record straight into the attached recorder. The recorder is a
// *diagnostic* surface — the ring's order, and once it wraps which records
// it keeps, reflect scheduling and never feed the deterministic exports
// (metrics/trace/rssac002 stay byte-identical with or without it); only
// recorded() and failure_summary() are scheduling-independent.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/ip.h"
#include "util/timeutil.h"

namespace rootsim::netsim {

/// One completed exchange as the transport saw it.
struct FlightRecord {
  enum class Op : uint8_t { Query, Axfr };
  /// Why the exchange ended the way it did.
  enum class Cause : uint8_t {
    Ok,          ///< final response delivered
    Timeout,     ///< every retry budget exhausted (UDP or TCP connect)
    TcpRefused,  ///< needed TCP, path refuses it (truncated answer is final)
    Refused,     ///< server-side refusal (AXFR disabled)
  };

  // Path coordinates (which conversation this was).
  uint32_t vp_id = 0;
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  uint64_t round = 0;
  uint32_t site_id = 0;

  Op op = Op::Query;
  Cause cause = Cause::Ok;
  /// The UDP answer came back TC=1 — the exchange moved to TCP, unless the
  /// path refuses TCP (cause tcp-refused), in which case the truncated
  /// answer was final.
  bool truncated_retry = false;

  uint32_t udp_attempts = 0;
  uint32_t tcp_attempts = 0;
  uint32_t drops = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double time_ms = 0;  ///< simulated time the exchange cost

  std::string qname;  ///< first question ("." for root); empty for AXFR
  uint16_t qtype = 0;
  util::UnixTime when = 0;  ///< simulated send time
};

std::string_view to_string(FlightRecord::Cause cause);

/// Order-insensitive per-(root, family, cause) rollup of *every* record ever
/// recorded — counts and first/last simulated send times. Unlike the ring,
/// nothing is ever evicted, and count/min/max don't care in which order the
/// workers recorded the exchanges, so the rollup is identical under any
/// worker count or steal schedule. This is the recorder surface the SLO plane's cause
/// attribution is allowed to read (the buffered ring is not: its eviction
/// order reflects scheduling).
struct FlightFailureSummary {
  struct Entry {
    int root_index = 0;
    bool v6 = false;
    FlightRecord::Cause cause = FlightRecord::Cause::Timeout;
    uint64_t count = 0;
    util::UnixTime first = 0;  ///< earliest simulated send time
    util::UnixTime last = 0;   ///< latest simulated send time
  };
  /// Non-Ok entries with count > 0, ordered by (root, family, cause).
  std::vector<Entry> entries;
};

/// Thread-safe bounded ring of FlightRecords, oldest evicted first.
class FlightRecorder {
 public:
  static constexpr size_t kSummaryRoots = 13;
  static constexpr size_t kSummaryCauses = 4;

  explicit FlightRecorder(size_t capacity = 256);

  void record(FlightRecord record);

  size_t capacity() const { return capacity_; }
  /// Buffered records, at most capacity().
  size_t size() const;
  /// Total records ever recorded, including evicted ones.
  /// Scheduling-independent.
  uint64_t recorded() const;
  /// Records evicted by the ring bound (recorded minus buffered).
  uint64_t dropped() const;

  /// The deterministic failure rollup (see FlightFailureSummary). Records
  /// with root_index outside [0, kSummaryRoots) (priming, local-root
  /// refresh) are not rolled up.
  FlightFailureSummary failure_summary() const;

  /// Copy of the buffered records, oldest first.
  std::vector<FlightRecord> records() const;

  /// One JSON object per buffered record, oldest first:
  ///   {"op":"query","cause":"timeout","vp":12,"root":1,"family":"v4",
  ///    "round":9980,"site":33,"qname":".","qtype":"SOA","t":1694593200,
  ///    "udp_attempts":3,"tcp_attempts":0,"drops":3,"bytes_sent":132,
  ///    "bytes_received":0,"time_ms":10500.0}
  std::string to_jsonl() const;

  /// Drops the buffered records; recorded() and failure_summary() keep
  /// counting what they held.
  void clear();

 private:
  struct SummaryCell {
    uint64_t count = 0;
    util::UnixTime first = 0;
    util::UnixTime last = 0;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t recorded_ = 0;
  std::deque<FlightRecord> ring_;
  std::array<SummaryCell, kSummaryRoots * 2 * kSummaryCauses> summary_{};
};

}  // namespace rootsim::netsim
