// The measurement schedule: rounds at a base cadence over [start, end),
// tightened to a dense cadence inside event windows.
//
// The instants themselves are scenario data, not code: the paper's Fig. 2
// schedule (30-minute rounds 2023-07-03..12-24, 15-minute rounds around the
// ZONEMD introduction and the b.root renumbering) is the `paper-2023` spec
// (examples/scenarios/paper-2023.scn), applied through scenario::apply().
#pragma once

#include <cstdint>
#include <vector>

#include "util/timeutil.h"

namespace rootsim::measure {

struct ScheduleConfig {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  int64_t base_interval_s = 30 * 60;
  int64_t dense_interval_s = 15 * 60;
  struct Window {
    util::UnixTime start;
    util::UnixTime end;
  };
  std::vector<Window> dense_windows;
};

/// The materialized round list.
class Schedule {
 public:
  explicit Schedule(ScheduleConfig config = {});

  size_t round_count() const { return rounds_.size(); }
  util::UnixTime round_time(size_t index) const { return rounds_[index]; }
  const std::vector<util::UnixTime>& rounds() const { return rounds_; }

  /// Index of the last round at or before `t` (0 if t precedes the campaign).
  size_t round_at(util::UnixTime t) const;

  /// True if `t` falls inside a dense (15-minute) window.
  bool in_dense_window(util::UnixTime t) const;

  const ScheduleConfig& config() const { return config_; }

 private:
  ScheduleConfig config_;
  std::vector<util::UnixTime> rounds_;
};

}  // namespace rootsim::measure
