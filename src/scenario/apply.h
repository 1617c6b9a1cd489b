// The applier: maps a declarative ScenarioSpec onto the existing layers.
//
//   spec field                 -> configured layer
//   ------------------------------------------------------------------
//   horizon + dense windows    -> measure::ScheduleConfig
//   zone.zonemd_*/ksk_roll     -> rss::ZoneAuthorityConfig phase times
//   zone.czds_broken_zonemd    -> rss::DistributionConfig CZDS window
//   first Renumbering event    -> rss::ZoneAuthorityConfig::broot_change
//                                 (+ catalog renumbering time, via Campaign)
//   faults                     -> measure::CampaignConfig::fault_plan
//   deployments                -> measure::CampaignConfig overrides
//   outage-like events         -> rss::ScriptedOutage windows (which the
//                                 SLO monitor turns into CauseHints itself)
//   path-degrading events      -> netsim::TransportConfig condition windows
//                                 + obs::CauseHint extras
//   route_fallback             -> measure::SloTimelineOptions candidates
//
// Everything produced is plain config — the monitor plane (SloCollector /
// IncidentTracker) detects and attributes scenario events with zero new
// monitor code.
#pragma once

#include "measure/campaign.h"
#include "rss/distribution.h"
#include "scenario/spec.h"

namespace rootsim::scenario {

struct Applied {
  measure::CampaignConfig campaign;
  measure::SloTimelineOptions slo;
  rss::DistributionConfig distribution;
};

/// Pure function of the spec.
Applied apply(const ScenarioSpec& spec);

/// The paper scenario applied — the campaign config every pre-scenario
/// caller used to get from `measure::CampaignConfig{}`.
measure::CampaignConfig paper_campaign_config();

}  // namespace rootsim::scenario
