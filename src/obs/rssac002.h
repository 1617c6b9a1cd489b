// RSSAC002-style per-instance daily telemetry.
//
// Real root operators publish RSSAC002 daily measurements per instance:
// query/response volume split by transport and address family, response-code
// mix, truncation rate, size distributions and unique-source counts. The
// simulated root instances emit the same artifact so a scenario run (the
// b.root renumbering, the ZONEMD roll, an outage scenario) is analyzable
// with operator-grade evidence instead of ad-hoc counters.
//
// Determinism contract (the same one MetricsRegistry::merge_from keeps):
// every accumulator is merge-associative and commutative — plain adds,
// fixed-layout log-linear histograms, and an OR-merged bitmap sketch for
// unique sources — so per-unit shards folded in any order reproduce a
// serial run's export byte for byte.
//
// This header is deliberately free of dns/netsim types: the transport layer
// translates its exchange outcome into the plain-integer Rssac002Sample, so
// obs stays the bottom of the dependency stack.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/loglin.h"
#include "util/timeutil.h"

namespace rootsim::obs {

/// Linear-counting sketch of distinct 64-bit source identities: a fixed
/// 4096-bit bitmap, OR-merged across shards. Estimation error is ~2% up to
/// a few thousand distinct sources — plenty for per-instance-per-day VP
/// counts — and the bitmap itself (not the estimate) is what shards merge,
/// so the merged estimate equals the single-pass estimate exactly.
class UniqueSourceSketch {
 public:
  static constexpr size_t kBits = 4096;

  void insert(uint64_t source_id);
  void merge_from(const UniqueSourceSketch& other);

  /// Linear-counting estimate of the number of distinct inserted ids,
  /// rounded to the nearest integer. kBits * ln(kBits) when saturated.
  uint64_t estimate() const;
  /// Bits set (the merged quantity; exported for exactness-minded tooling).
  uint64_t bits_set() const;

 private:
  uint64_t words_[kBits / 64] = {};
};

/// One server-side exchange, reduced to plain integers by the transport
/// layer. `udp_queries`/`tcp_queries` count queries the server actually
/// received (a datagram lost on the query path never reaches it); rcode and
/// sizes describe the final response when `delivered`.
struct Rssac002Sample {
  std::string_view instance;  ///< serving instance identity (hostname.bind)
  util::UnixTime when = 0;    ///< simulated time; bucketed to the UTC day
  bool v6 = false;            ///< address family of the queried service address
  uint32_t udp_queries = 0;   ///< UDP datagram queries received
  uint32_t tcp_queries = 0;   ///< TCP queries received (0 or 1)
  bool delivered = false;     ///< a final response reached the client
  bool final_tcp = false;     ///< that response went over TCP
  uint16_t rcode = 0;         ///< response code of the final response
  bool truncated = false;     ///< a TC=1 response was sent during the exchange
  bool axfr = false;          ///< the exchange was a zone transfer
  uint64_t query_bytes = 0;   ///< wire size of the query message
  uint64_t response_bytes = 0;  ///< wire size of the final response / stream
  uint64_t source_id = 0;       ///< client identity (vp id) for unique-sources
};

/// Accumulates Rssac002Samples into per-(instance, day) records and exports
/// them as rssac002.jsonl. Thread-safe; the exec engine gives each unit its
/// own collector and folds them with merge_from in unit order.
class Rssac002Collector {
 public:
  /// Everything one instance accumulated over one simulated day.
  struct Day {
    /// Queries received / responses sent, [udp=0|tcp=1][v4=0|v6=1].
    uint64_t queries[2][2] = {};
    uint64_t responses[2][2] = {};
    /// Final-response rcode mix; rcodes >= kRcodeSlots fold into the last
    /// slot (RSSAC002 reports the same small set).
    static constexpr size_t kRcodeSlots = 24;
    uint64_t rcodes[kRcodeSlots + 1] = {};
    uint64_t truncated = 0;    ///< responses sent with TC=1
    uint64_t axfr_served = 0;  ///< zone transfers streamed
    LogLinearHistogram query_size;
    LogLinearHistogram udp_response_size;
    LogLinearHistogram tcp_response_size;
    UniqueSourceSketch sources[2];  ///< distinct clients, [v4=0|v6=1]

    void merge_from(const Day& other);
    uint64_t total_queries() const;
  };

  void record(const Rssac002Sample& sample);
  void merge_from(const Rssac002Collector& other);
  void clear();

  bool empty() const;
  /// Distinct (instance, day) records accumulated.
  size_t record_count() const;

  /// Deterministically ordered copy (instance name, then day).
  std::vector<std::pair<std::pair<std::string, util::UnixTime>, Day>> snapshot()
      const;

  /// One JSON object per (instance, day), RSSAC002-flavoured field names:
  ///   {"instance":"k1-lon","day":"2023-12-10",
  ///    "dns-udp-queries-received-ipv4":..., "rcode-volume":{"0":...},
  ///    "query-size":{...log-linear histogram...}, "num-sources-ipv4":...}
  /// Non-empty `scenario` prepends one `{"scenario":"<name>"}` header line
  /// (same convention as the slo/incidents exports).
  std::string to_jsonl(const std::string& scenario = "") const;

  /// Writes to_jsonl() to `path`; false on I/O failure.
  bool write_jsonl(const std::string& path,
                   const std::string& scenario = "") const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, util::UnixTime>, Day> days_;
};

}  // namespace rootsim::obs
