// Per-probe tracing: spans with nested child events over a bounded ring.
//
// One span covers one (vp, address, round) probe; child events record the
// traceroute, each DNS query, the AXFR and the validation verdict — the
// structured per-query status output ZDNS demonstrated a measurement
// toolkit needs at scale. Timestamps are *simulated* campaign time, never
// the wall clock, so two equal-seed runs dump byte-identical JSONL.
//
// The buffer is a bounded ring: when full, the oldest events are dropped
// (and counted), so long campaigns keep the most recent window without
// unbounded memory growth.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timeutil.h"

namespace rootsim::obs {

class Counter;

/// One key=value annotation on a span or event. Values are pre-rendered
/// strings: formatting at record time keeps the dump deterministic and the
/// storage simple.
struct TraceAttr {
  std::string key;
  std::string value;
};

struct TraceEvent {
  enum class Kind { SpanBegin, SpanEnd, Event };
  uint64_t id = 0;       ///< monotonically increasing sequence number
  uint64_t span_id = 0;  ///< enclosing span's SpanBegin id; 0 = top level
  Kind kind = Kind::Event;
  std::string name;
  util::UnixTime sim_time = 0;  ///< simulated campaign time
  std::vector<TraceAttr> attrs;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  /// Opens a span; returns its id for nesting and for end_span. `parent` is
  /// an enclosing span id (0 for top level).
  uint64_t begin_span(std::string_view name, util::UnixTime sim_time,
                      std::vector<TraceAttr> attrs = {}, uint64_t parent = 0);
  void end_span(uint64_t span_id, util::UnixTime sim_time,
                std::vector<TraceAttr> attrs = {});
  /// Records a point event inside `span_id` (0 = top level).
  void event(uint64_t span_id, std::string_view name, util::UnixTime sim_time,
             std::vector<TraceAttr> attrs = {});

  size_t capacity() const { return capacity_; }
  /// Events currently buffered (<= capacity).
  size_t size() const;
  /// Total events ever recorded, including dropped ones.
  uint64_t recorded() const;
  /// Events evicted by the ring bound.
  uint64_t dropped() const;

  /// In-order copy of the buffered events.
  std::vector<TraceEvent> events() const;

  /// One JSON object per buffered event, oldest first:
  ///   {"id":1,"span":0,"kind":"begin","name":"probe","t":1694593200,
  ///    "attrs":{"vp":"12","root":"k"}}
  std::string to_jsonl() const;

  void clear();

  /// Appends another tracer's buffered events, renumbering their ids to
  /// continue this tracer's sequence (span links are preserved). Used by the
  /// exec engine to merge per-unit shards in unit order: when each shard's
  /// capacity matches this tracer's, the merged ring — ids, content and drop
  /// count — is byte-identical to a serial run's. The shard is left empty.
  void absorb(Tracer&& shard);

  /// Mirrors ring evictions into a metrics counter (tracer.dropped_spans) so
  /// overflow is visible in exports instead of silent. Only push()-time
  /// evictions increment the counter — absorb() folds the shard's *counter*
  /// through the metrics merge, so double-counting shard drops here would
  /// break serial-vs-sharded equality.
  void bind_drop_counter(Counter* counter) { drop_counter_ = counter; }

 private:
  void push(TraceEvent event);

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  Counter* drop_counter_ = nullptr;
  std::deque<TraceEvent> ring_;
};

/// Parses one line produced by Tracer::to_jsonl back into a TraceEvent —
/// the round-trip half used by tests and by offline report tooling. Returns
/// false on malformed input.
bool parse_trace_line(std::string_view line, TraceEvent& out);

}  // namespace rootsim::obs
