// Incident detection over the streaming SLO plane (obs/slo.h).
//
// IncidentTracker is a per-(root letter, family, metric) state machine fed
// the ordered sliding-window sweep from SloCollector::windows(). A breach
// must persist for `open_after` consecutive evaluated windows before an
// incident opens, and the stream must stay healthy for `close_after`
// consecutive evaluated windows before it closes — RSSAC047 thresholds are
// hard lines, and a stream sitting exactly on one would otherwise flap an
// incident per window. Starved windows (below SloThresholds::min_probes) are
// skipped entirely: silence is not evidence of health or of breach.
//
// Cause attribution is correlation, not causation inference, and says so:
// the tracker is handed CauseHints — time windows during which something
// known happened (a scripted outage, a zone-pipeline event like the ZONEMD
// algorithm roll, a FlightRecorder failure-cause burst, a sampled
// rss::outages window) — and each incident is attributed to the hint with
// the highest overlap_seconds x weight score among hints matching its
// letter/family/metric. Ties break lexicographically by label, no-overlap
// incidents stay "unknown", and every score is a pure function of incident
// and hint endpoints, so incidents.jsonl is byte-identical across worker
// counts and steal schedules whenever the windows and hints are.
#pragma once

#include <string>
#include <vector>

#include "obs/slo.h"

namespace rootsim::obs {

/// One known event window offered to attribution. Built by the measurement
/// layer (which can see rss::outages, zone-authority config, and the flight
/// recorder); obs only correlates intervals.
struct CauseHint {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  int root = -1;    ///< root letter index, -1 = any letter
  int family = -1;  ///< 0 = v4, 1 = v6, -1 = either
  int metric = -1;  ///< SloMetric value the hint explains, -1 = any
  std::string label;
  double weight = 1.0;  ///< prior strength; score = overlap seconds x weight
};

/// One detected threshold breach, from first breached window to healed.
struct Incident {
  uint32_t id = 0;  ///< 1-based, assigned after the deterministic sort
  uint8_t root = 0;
  bool v6 = false;
  SloMetric metric = SloMetric::Availability;
  util::UnixTime opened = 0;  ///< start of the first breached window
  util::UnixTime closed = 0;  ///< end of the healing window; 0 = still open
  util::UnixTime last_breach_end = 0;  ///< end of the last breached window
  size_t breach_windows = 0;  ///< breached windows inside the incident
  double worst_value = 0;     ///< most extreme observed value of the metric
  double threshold = 0;       ///< the threshold it was judged against
  std::string cause = "unknown";
  double cause_score = 0;

  bool open() const { return closed == 0; }
};

class IncidentTracker {
 public:
  explicit IncidentTracker(SloThresholds thresholds = {});

  /// Feed windows in SloCollector::windows() order (grouped per stream,
  /// time-ascending). May be called repeatedly with successive sweeps of
  /// *new* windows; re-feeding the same window double-counts.
  void observe(const std::vector<SloWindow>& windows);

  void add_hint(const CauseHint& hint);
  void add_hints(const std::vector<CauseHint>& hints);

  size_t open_count() const;

  /// All incidents (open and closed), attributed against the hints, sorted
  /// by (opened, root, family, metric) with ids assigned 1..N — a total,
  /// schedule-independent order.
  std::vector<Incident> incidents() const;

  /// One JSON object per incident (the incidents.jsonl export):
  ///   {"id":1,"letter":"b","family":"v4","metric":"availability",
  ///    "opened":"2023-11-27T00:00:00Z","closed":"2023-11-29T12:00:00Z",
  ///    "breach_windows":7,"worst":0.993056,"threshold":0.999600,
  ///    "cause":"b.root-renumbering","cause_score":172800.0}
  /// Non-empty `scenario` prepends one `{"scenario":"<name>"}` header line
  /// (same convention as SloCollector::windows_to_jsonl).
  static std::string incidents_to_jsonl(const std::vector<Incident>& incidents,
                                        const std::string& scenario = "");
  std::string to_jsonl() const;

  const SloThresholds& thresholds() const { return thresholds_; }

 private:
  struct StreamState {
    size_t breach_streak = 0;
    size_t heal_streak = 0;
    util::UnixTime streak_start = 0;  ///< start of the oldest breached window
    double streak_worst = 0;
    size_t streak_windows = 0;
    util::UnixTime streak_last_end = 0;
    int open_index = -1;  ///< index into incidents_, -1 = no open incident
  };

  static size_t state_index(uint8_t root, bool v6, SloMetric metric);
  double metric_value(const SloWindow& window, SloMetric metric) const;
  double metric_threshold(SloMetric metric) const;
  static bool more_extreme(SloMetric metric, double candidate, double current);
  void attribute(Incident& incident) const;

  SloThresholds thresholds_;
  std::vector<StreamState> states_;
  std::vector<Incident> incidents_;
  std::vector<CauseHint> hints_;
};

}  // namespace rootsim::obs
