#include "scenario/parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace rootsim::scenario {

namespace {

/// Exactly the form util::format_datetime writes, of a real instant: a
/// date such as 2023-02-30 is refused rather than moved to March, and so are
/// trailing bytes and fields too wide to add up without overflow.
bool parse_time(const std::string& token, util::UnixTime* out) {
  int year, month, day, hour, minute, second;
  if (std::sscanf(token.c_str(), "%4d-%2d-%2dT%2d:%2d:%2dZ", &year, &month,
                  &day, &hour, &minute, &second) != 6)
    return false;
  const util::UnixTime t =
      util::make_time(year, month, day, hour, minute, second);
  if (util::format_datetime(t) != token) return false;
  *out = t;
  return true;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

bool parse_letter(const std::string& token, int* out) {
  if (token == "-") {
    *out = -1;
    return true;
  }
  if (token.size() != 1 || token[0] < 'a' || token[0] > 'm') return false;
  *out = token[0] - 'a';
  return true;
}

std::string letter_name(int letter) {
  return letter < 0 ? "-" : std::string(1, static_cast<char>('a' + letter));
}

bool parse_region(const std::string& token, int* out) {
  if (token == "-") {
    *out = -1;
    return true;
  }
  for (util::Region r : util::all_regions()) {
    if (token == util::region_short_name(r)) {
      *out = static_cast<int>(r);
      return true;
    }
  }
  return false;
}

std::string region_name(int region) {
  return region < 0
             ? "-"
             : std::string(util::region_short_name(
                   static_cast<util::Region>(region)));
}

bool parse_event_kind(const std::string& token, EventKind* out) {
  for (EventKind kind :
       {EventKind::SiteOutage, EventKind::Ddos, EventKind::RouteLeak,
        EventKind::TransportDegradation, EventKind::LetterAdded,
        EventKind::LetterRemoved, EventKind::Renumbering,
        EventKind::SiteGrowth}) {
    if (token == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool parse_fault_kind(const std::string& token, FaultSpec::Kind* out) {
  for (FaultSpec::Kind kind :
       {FaultSpec::Kind::ClockSkew, FaultSpec::Kind::Bitflip,
        FaultSpec::Kind::StaleServer}) {
    if (token == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

using util::parse_number;

/// A fraction or probability: a number in [0, 1].
bool parse_unit_interval(const std::string& token, double* out) {
  return parse_number(token, out) && *out >= 0 && *out <= 1;
}

/// A finite, non-negative number (milliseconds of delay or jitter).
bool parse_non_negative(const std::string& token, double* out) {
  return parse_number(token, out) && std::isfinite(*out) && *out >= 0;
}

/// key=value fields of an event/fault line; "label=" swallows the rest of
/// the line so labels may contain spaces.
struct FieldReader {
  const std::string& line;
  size_t pos;
  std::string error;

  bool next(std::string* key, std::string* value) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) return false;
    size_t eq = line.find('=', pos);
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + line.substr(pos) + "'";
      return false;
    }
    *key = line.substr(pos, eq - pos);
    if (*key == "label") {
      *value = line.substr(eq + 1);
      pos = line.size();
      return true;
    }
    size_t end = line.find(' ', eq + 1);
    if (end == std::string::npos) end = line.size();
    *value = line.substr(eq + 1, end - eq - 1);
    pos = end;
    return true;
  }
};

/// Exactly kRegionCount comma-separated site counts, each a whole number
/// >= 0 (an empty count fails).
bool parse_counts(const std::string& token,
                  std::array<int, util::kRegionCount>* out) {
  size_t start = 0;
  for (size_t i = 0; i < out->size(); ++i) {
    const bool last = i + 1 == out->size();
    const size_t comma = token.find(',', start);
    if ((comma == std::string::npos) != last) return false;
    const size_t len = last ? std::string::npos : comma - start;
    if (!parse_number(token.substr(start, len), &(*out)[i]) || (*out)[i] < 0)
      return false;
    start = comma + 1;
  }
  return true;
}

/// The shortest text that reads back as exactly `value` ("%g" keeps only
/// six significant digits).
std::string exact_number(double value) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general)
          .ptr;
  return std::string(buf, end);
}

std::string counts_to_string(const std::array<int, util::kRegionCount>& counts) {
  std::string out;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i) out += ',';
    out += util::format("%d", counts[i]);
  }
  return out;
}

}  // namespace

bool parse_scenario(std::string_view text, ScenarioSpec* out,
                    std::string* error) {
  ScenarioSpec spec;
  std::istringstream in{std::string(text)};
  std::string line;
  size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error) *error = util::format("line %zu: %s", line_no, what.c_str());
    return false;
  };
  // The lines of the events and dense windows, for the horizon check once
  // the whole file is read.
  std::vector<size_t> event_lines;
  std::vector<size_t> dense_lines;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "scenario") {
      if (tokens.size() != 2) return fail("scenario wants one name");
      spec.name = tokens[1];
    } else if (directive == "description") {
      size_t at = line.find("description");
      spec.description = std::string(util::trim(line.substr(at + 11)));
    } else if (directive == "seed") {
      if (tokens.size() != 2 || !parse_number(tokens[1], &spec.seed))
        return fail("seed wants one number");
    } else if (directive == "horizon") {
      if (tokens.size() != 3 || !parse_time(tokens[1], &spec.horizon.start) ||
          !parse_time(tokens[2], &spec.horizon.end))
        return fail("horizon wants <start> <end>");
      if (spec.horizon.end <= spec.horizon.start)
        return fail("horizon end must be after its start");
    } else if (directive == "intervals") {
      if (tokens.size() != 3) return fail("intervals wants <base_s> <dense_s>");
      // A zero step would never advance the schedule.
      if (!parse_number(tokens[1], &spec.horizon.base_interval_s) ||
          !parse_number(tokens[2], &spec.horizon.dense_interval_s) ||
          spec.horizon.base_interval_s <= 0 || spec.horizon.dense_interval_s <= 0)
        return fail("intervals must be positive whole seconds");
    } else if (directive == "dense-window") {
      TimeWindow window;
      if (tokens.size() != 3 || !parse_time(tokens[1], &window.start) ||
          !parse_time(tokens[2], &window.end))
        return fail("dense-window wants <start> <end>");
      if (window.end <= window.start)
        return fail("dense-window end must be after its start");
      spec.horizon.dense_windows.push_back(window);
      dense_lines.push_back(line_no);
    } else if (directive == "zonemd-private") {
      if (tokens.size() != 2 ||
          !parse_time(tokens[1], &spec.zone.zonemd_private_start))
        return fail("zonemd-private wants one time");
    } else if (directive == "zonemd-sha384") {
      if (tokens.size() != 2 ||
          !parse_time(tokens[1], &spec.zone.zonemd_sha384_start))
        return fail("zonemd-sha384 wants one time");
    } else if (directive == "ksk-roll") {
      if (tokens.size() != 2 || !parse_time(tokens[1], &spec.zone.ksk_roll_at))
        return fail("ksk-roll wants one time");
    } else if (directive == "czds-broken") {
      if (tokens.size() != 3 ||
          !parse_time(tokens[1], &spec.zone.czds_broken_zonemd.start) ||
          !parse_time(tokens[2], &spec.zone.czds_broken_zonemd.end))
        return fail("czds-broken wants <start> <end>");
      if (spec.zone.czds_broken_zonemd.end <= spec.zone.czds_broken_zonemd.start)
        return fail("czds-broken end must be after its start");
    } else if (directive == "route-fallback") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off"))
        return fail("route-fallback wants on|off");
      spec.route_fallback = tokens[1] == "on";
    } else if (directive == "deployment") {
      DeploymentOverride dep;
      if (tokens.size() != 6 || !parse_letter(tokens[1], &dep.letter) ||
          dep.letter < 0 || tokens[2] != "global" ||
          !parse_counts(tokens[3], &dep.global_sites) || tokens[4] != "local" ||
          !parse_counts(tokens[5], &dep.local_sites))
        return fail(
            "deployment wants <letter> global <6 counts> local <6 counts>, "
            "each a whole number >= 0");
      if (std::none_of(dep.global_sites.begin(), dep.global_sites.end(),
                       [](int count) { return count > 0; }))
        return fail("deployment needs at least one global site");
      spec.deployments.push_back(dep);
    } else if (directive == "event") {
      if (tokens.size() < 2) return fail("event wants a kind");
      Event event;
      if (!parse_event_kind(tokens[1], &event.kind))
        return fail("unknown event kind '" + tokens[1] + "'");
      size_t fields_at = line.find(tokens[1]) + tokens[1].size();
      FieldReader reader{line, fields_at, {}};
      std::string key, value;
      while (reader.next(&key, &value)) {
        bool ok = true;
        if (key == "letter") ok = parse_letter(value, &event.letter);
        else if (key == "region") ok = parse_region(value, &event.region);
        else if (key == "start") ok = parse_time(value, &event.window.start);
        else if (key == "end") ok = parse_time(value, &event.window.end);
        else if (key == "fraction") ok = parse_unit_interval(value, &event.site_fraction);
        else if (key == "loss") ok = parse_unit_interval(value, &event.loss);
        else if (key == "extra-rtt") ok = parse_non_negative(value, &event.extra_rtt_ms);
        else if (key == "jitter") ok = parse_non_negative(value, &event.jitter_ms);
        else if (key == "stages")
          ok = parse_number(value, &event.stages) && event.stages >= 1;
        else if (key == "label") event.label = value;
        else ok = false;
        if (!ok) return fail("bad event field " + key + "=" + value);
      }
      if (!reader.error.empty()) return fail(reader.error);
      if (event.window.end <= event.window.start)
        return fail("event end must be after its start");
      spec.events.push_back(std::move(event));
      event_lines.push_back(line_no);
    } else if (directive == "fault") {
      if (tokens.size() < 2) return fail("fault wants a kind");
      FaultSpec fault;
      if (!parse_fault_kind(tokens[1], &fault.kind))
        return fail("unknown fault kind '" + tokens[1] + "'");
      size_t fields_at = line.find(tokens[1]) + tokens[1].size();
      FieldReader reader{line, fields_at, {}};
      std::string key, value;
      while (reader.next(&key, &value)) {
        bool ok = true;
        if (key == "vp") ok = parse_number(value, &fault.vp_id);
        else if (key == "root") ok = parse_letter(value, &fault.root);
        else if (key == "family") {
          if (value == "v4") fault.family = 0;
          else if (value == "v6") fault.family = 1;
          else ok = false;
        } else if (key == "old-b") {
          ok = value == "0" || value == "1";
          fault.old_b_address = value == "1";
        } else if (key == "when") ok = parse_time(value, &fault.when);
        else if (key == "offset") ok = parse_number(value, &fault.clock_offset_s);
        else if (key == "frozen") {
          if (value == "-") fault.server_frozen_at = 0;
          else ok = parse_time(value, &fault.server_frozen_at);
        } else if (key == "table2")
          ok = parse_number(value, &fault.table2_vp_id) && fault.table2_vp_id >= 0;
        else ok = false;
        if (!ok) return fail("bad fault field " + key + "=" + value);
      }
      if (!reader.error.empty()) return fail(reader.error);
      spec.faults.push_back(fault);
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (spec.name.empty()) {
    line_no = 0;
    return fail("missing 'scenario <name>'");
  }
  if (spec.horizon.end <= spec.horizon.start) {
    line_no = 0;
    return fail("missing or empty 'horizon'");
  }
  const auto inside = [&](const TimeWindow& window) {
    return window.start >= spec.horizon.start && window.end <= spec.horizon.end;
  };
  for (size_t i = 0; i < spec.events.size(); ++i) {
    line_no = event_lines[i];
    if (!inside(spec.events[i].window))
      return fail("event window is not inside the horizon");
  }
  for (size_t i = 0; i < spec.horizon.dense_windows.size(); ++i) {
    line_no = dense_lines[i];
    if (!inside(spec.horizon.dense_windows[i]))
      return fail("dense-window is not inside the horizon");
  }
  *out = std::move(spec);
  return true;
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::string out;
  out += "scenario " + spec.name + "\n";
  if (!spec.description.empty()) out += "description " + spec.description + "\n";
  out += util::format("seed %llu\n",
                      static_cast<unsigned long long>(spec.seed));
  out += "horizon " + util::format_datetime(spec.horizon.start) + " " +
         util::format_datetime(spec.horizon.end) + "\n";
  out += util::format("intervals %lld %lld\n",
                      static_cast<long long>(spec.horizon.base_interval_s),
                      static_cast<long long>(spec.horizon.dense_interval_s));
  for (const TimeWindow& w : spec.horizon.dense_windows)
    out += "dense-window " + util::format_datetime(w.start) + " " +
           util::format_datetime(w.end) + "\n";
  if (spec.zone.zonemd_private_start)
    out += "zonemd-private " +
           util::format_datetime(spec.zone.zonemd_private_start) + "\n";
  if (spec.zone.zonemd_sha384_start)
    out += "zonemd-sha384 " +
           util::format_datetime(spec.zone.zonemd_sha384_start) + "\n";
  if (spec.zone.ksk_roll_at)
    out += "ksk-roll " + util::format_datetime(spec.zone.ksk_roll_at) + "\n";
  if (spec.zone.czds_broken_zonemd.start < spec.zone.czds_broken_zonemd.end)
    out += "czds-broken " +
           util::format_datetime(spec.zone.czds_broken_zonemd.start) + " " +
           util::format_datetime(spec.zone.czds_broken_zonemd.end) + "\n";
  if (spec.route_fallback) out += "route-fallback on\n";
  for (const DeploymentOverride& dep : spec.deployments)
    out += "deployment " + letter_name(dep.letter) + " global " +
           counts_to_string(dep.global_sites) + " local " +
           counts_to_string(dep.local_sites) + "\n";
  for (const Event& e : spec.events) {
    out += util::format("event %s letter=%s region=%s start=%s end=%s",
                        to_string(e.kind), letter_name(e.letter).c_str(),
                        region_name(e.region).c_str(),
                        util::format_datetime(e.window.start).c_str(),
                        util::format_datetime(e.window.end).c_str());
    out += " fraction=" + exact_number(e.site_fraction) +
           " loss=" + exact_number(e.loss) +
           " extra-rtt=" + exact_number(e.extra_rtt_ms) +
           " jitter=" + exact_number(e.jitter_ms);
    out += util::format(" stages=%d label=", e.stages) + e.label + "\n";
  }
  for (const FaultSpec& f : spec.faults) {
    out += util::format(
        "fault %s vp=%u root=%s family=%s old-b=%d when=%s offset=%lld "
        "frozen=%s table2=%d\n",
        to_string(f.kind), f.vp_id, letter_name(f.root).c_str(),
        f.family == 1 ? "v6" : "v4", f.old_b_address ? 1 : 0,
        util::format_datetime(f.when).c_str(),
        static_cast<long long>(f.clock_offset_s),
        f.server_frozen_at
            ? util::format_datetime(f.server_frozen_at).c_str()
            : "-",
        f.table2_vp_id);
  }
  return out;
}

}  // namespace rootsim::scenario
