// Fault events: scheduled faulty zone transfers the audit executes.
//
// A plan is scenario data — the paper's Table 2 plan (bad clocks -> "Sig.
// not incepted", faulty RAM -> bitflipped AXFRs -> "Bogus Signature", stale
// d.root instances -> "Signature expired") is the `paper-2023` spec's fault
// timeline (its `fault` lines in examples/scenarios/paper-2023.scn) and
// reaches the campaign through CampaignConfig::fault_plan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/ip.h"
#include "util/timeutil.h"

namespace rootsim::measure {

/// One scheduled faulty zone transfer.
struct FaultEvent {
  enum class Kind { ClockSkew, Bitflip, StaleServer };
  Kind kind = Kind::Bitflip;
  uint32_t vp_id = 0;
  /// Root whose transfer is affected; -1 = all roots probed this round.
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  bool old_b_address = false;
  util::UnixTime when = 0;
  /// ClockSkew: the VP's offset in seconds at this event.
  int64_t clock_offset_s = 0;
  /// StaleServer: the time the instance's zone copy froze.
  std::optional<util::UnixTime> server_frozen_at;
  /// Table 2 VPid bucket for reporting.
  int table2_vp_id = 0;
};

}  // namespace rootsim::measure
