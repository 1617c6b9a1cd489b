#include "obs/incident.h"

#include <algorithm>

#include "obs/metrics.h"  // json_escape
#include "util/strings.h"

namespace rootsim::obs {

IncidentTracker::IncidentTracker(SloThresholds thresholds)
    : thresholds_(thresholds),
      states_(kSloRoots * 2 * kSloMetricCount) {}

size_t IncidentTracker::state_index(uint8_t root, bool v6, SloMetric metric) {
  return (static_cast<size_t>(root) * 2 + (v6 ? 1 : 0)) * kSloMetricCount +
         static_cast<size_t>(metric);
}

double IncidentTracker::metric_value(const SloWindow& window,
                                     SloMetric metric) const {
  switch (metric) {
    case SloMetric::Availability: return window.availability;
    case SloMetric::Latency: return window.rtt_p95_ms;
    case SloMetric::Publication: return window.publication_p95_s;
    case SloMetric::Staleness: return window.staleness_max_s;
    case SloMetric::Integrity:
      return window.integrity_checks
                 ? static_cast<double>(window.integrity_ok) /
                       window.integrity_checks
                 : 1.0;
  }
  return 0;
}

double IncidentTracker::metric_threshold(SloMetric metric) const {
  switch (metric) {
    case SloMetric::Availability: return thresholds_.availability_min;
    case SloMetric::Latency: return thresholds_.rtt_p95_max_ms;
    case SloMetric::Publication: return thresholds_.publication_p95_max_s;
    case SloMetric::Staleness: return thresholds_.staleness_max_s;
    case SloMetric::Integrity: return thresholds_.integrity_min;
  }
  return 0;
}

bool IncidentTracker::more_extreme(SloMetric metric, double candidate,
                                   double current) {
  // Availability and Integrity breach downward, the rest upward.
  if (metric == SloMetric::Availability || metric == SloMetric::Integrity)
    return candidate < current;
  return candidate > current;
}

void IncidentTracker::observe(const std::vector<SloWindow>& windows) {
  for (const SloWindow& window : windows) {
    if (!window.evaluated) continue;  // starvation is not evidence
    if (window.root >= kSloRoots) continue;
    for (size_t m = 0; m < kSloMetricCount; ++m) {
      const auto metric = static_cast<SloMetric>(m);
      StreamState& state =
          states_[state_index(window.root, window.v6, metric)];
      const double value = metric_value(window, metric);
      if (window.breached(metric)) {
        state.heal_streak = 0;
        if (state.breach_streak == 0) {
          state.streak_start = window.start;
          state.streak_worst = value;
          state.streak_windows = 0;
        }
        ++state.breach_streak;
        ++state.streak_windows;
        state.streak_last_end = window.end;
        if (more_extreme(metric, value, state.streak_worst))
          state.streak_worst = value;
        if (state.open_index < 0 &&
            state.breach_streak >= thresholds_.open_after) {
          Incident incident;
          incident.root = window.root;
          incident.v6 = window.v6;
          incident.metric = metric;
          incident.opened = state.streak_start;
          incident.last_breach_end = state.streak_last_end;
          incident.breach_windows = state.streak_windows;
          incident.worst_value = state.streak_worst;
          incident.threshold = metric_threshold(metric);
          state.open_index = static_cast<int>(incidents_.size());
          incidents_.push_back(std::move(incident));
        } else if (state.open_index >= 0) {
          Incident& incident = incidents_[static_cast<size_t>(state.open_index)];
          ++incident.breach_windows;
          incident.last_breach_end = window.end;
          if (more_extreme(metric, value, incident.worst_value))
            incident.worst_value = value;
        }
      } else {
        state.breach_streak = 0;
        state.streak_windows = 0;
        if (state.open_index >= 0) {
          ++state.heal_streak;
          if (state.heal_streak >= thresholds_.close_after) {
            incidents_[static_cast<size_t>(state.open_index)].closed =
                window.end;
            state.open_index = -1;
            state.heal_streak = 0;
          }
        } else {
          state.heal_streak = 0;
        }
      }
    }
  }
}

void IncidentTracker::add_hint(const CauseHint& hint) {
  hints_.push_back(hint);
}

void IncidentTracker::add_hints(const std::vector<CauseHint>& hints) {
  hints_.insert(hints_.end(), hints.begin(), hints.end());
}

size_t IncidentTracker::open_count() const {
  size_t n = 0;
  for (const Incident& incident : incidents_)
    if (incident.open()) ++n;
  return n;
}

void IncidentTracker::attribute(Incident& incident) const {
  // Score every matching hint by overlap with [opened, activity end] and
  // keep the best; ties break toward the lexicographically smaller label so
  // the winner never depends on hint insertion order.
  const util::UnixTime incident_end =
      incident.open() ? incident.last_breach_end : incident.closed;
  incident.cause = "unknown";
  incident.cause_score = 0;
  for (const CauseHint& hint : hints_) {
    if (hint.root >= 0 && hint.root != incident.root) continue;
    if (hint.family >= 0 && hint.family != (incident.v6 ? 1 : 0)) continue;
    if (hint.metric >= 0 &&
        hint.metric != static_cast<int>(incident.metric))
      continue;
    const util::UnixTime lo = std::max(incident.opened, hint.start);
    const util::UnixTime hi = std::min(incident_end, hint.end);
    if (hi <= lo) continue;
    const double score = static_cast<double>(hi - lo) * hint.weight;
    if (score > incident.cause_score ||
        (score == incident.cause_score && incident.cause != "unknown" &&
         hint.label < incident.cause)) {
      incident.cause = hint.label;
      incident.cause_score = score;
    }
  }
}

std::vector<Incident> IncidentTracker::incidents() const {
  std::vector<Incident> out = incidents_;
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    return std::tie(a.opened, a.root, a.v6, a.metric) <
           std::tie(b.opened, b.root, b.v6, b.metric);
  });
  uint32_t next_id = 1;
  for (Incident& incident : out) {
    incident.id = next_id++;
    attribute(incident);
  }
  return out;
}

std::string IncidentTracker::incidents_to_jsonl(
    const std::vector<Incident>& incidents, const std::string& scenario) {
  std::string out;
  if (!scenario.empty())
    out += "{\"scenario\":\"" + json_escape(scenario) + "\"}\n";
  for (const Incident& incident : incidents) {
    out += util::format("{\"id\":%u,\"letter\":\"%c\",\"family\":\"%s\"",
                        incident.id, 'a' + incident.root,
                        incident.v6 ? "v6" : "v4");
    out += ",\"metric\":\"";
    out += to_string(incident.metric);
    out += "\",\"opened\":\"" + util::format_datetime(incident.opened) + "\"";
    if (incident.open()) {
      out += ",\"closed\":null";
    } else {
      out += ",\"closed\":\"" + util::format_datetime(incident.closed) + "\"";
    }
    out += util::format(
        ",\"breach_windows\":%zu,\"worst\":%.6f,\"threshold\":%.6f",
        incident.breach_windows, incident.worst_value, incident.threshold);
    out += ",\"cause\":\"" + json_escape(incident.cause) + "\"";
    out += util::format(",\"cause_score\":%.0f}\n", incident.cause_score);
  }
  return out;
}

std::string IncidentTracker::to_jsonl() const {
  return incidents_to_jsonl(incidents());
}

}  // namespace rootsim::obs
