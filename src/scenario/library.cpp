#include "scenario/library.h"

#include <algorithm>
#include <string_view>

#include "scenario/parser.h"
#include "scenario_files.h"
#include "util/strings.h"

namespace rootsim::scenario {

namespace {

/// The embedded file `name`.scn, parsed. The files are the library, so one
/// that does not parse is a broken build: stop with the parser's message.
ScenarioSpec parse_library_file(std::string_view name) {
  for (const LibraryFile& file : kLibraryFiles) {
    if (file.name != name) continue;
    ScenarioSpec spec;
    std::string error;
    if (!parse_scenario(file.text, &spec, &error))
      util::fatal("scenario library: %.*s.scn: %s",
                  static_cast<int>(name.size()), name.data(), error.c_str());
    return spec;
  }
  util::fatal("scenario library: no embedded %.*s.scn",
              static_cast<int>(name.size()), name.data());
}

}  // namespace

ScenarioSpec paper_2023() { return parse_library_file("paper-2023"); }
ScenarioSpec froot_buildout() { return parse_library_file("froot-buildout"); }
ScenarioSpec anycast_catchment() {
  return parse_library_file("anycast-catchment");
}
ScenarioSpec ddos_c_globals() { return parse_library_file("ddos-c-globals"); }

std::vector<ScenarioSpec> library() {
  return {paper_2023(), froot_buildout(), anycast_catchment(),
          ddos_c_globals()};
}

bool find_scenario(const std::string& name, ScenarioSpec* out) {
  for (ScenarioSpec& spec : library()) {
    if (spec.name == name) {
      if (out) *out = std::move(spec);
      return true;
    }
  }
  return false;
}

ScenarioSpec smoke_variant(const ScenarioSpec& spec) {
  constexpr int64_t kLeadSeconds = 4 * util::kSecondsPerDay;
  constexpr int64_t kSpanSeconds = 16 * util::kSecondsPerDay;
  ScenarioSpec smoke = spec;
  smoke.name = spec.name + "-smoke";

  util::UnixTime focus = spec.horizon.start;
  if (!spec.events.empty()) focus = spec.events.front().window.start;
  util::UnixTime start = std::max(spec.horizon.start, focus - kLeadSeconds);
  util::UnixTime end = std::min(spec.horizon.end, start + kSpanSeconds);
  smoke.horizon.start = start;
  smoke.horizon.end = end;

  auto clip = [&](TimeWindow w) {
    return TimeWindow{std::clamp(w.start, start, end),
                      std::clamp(w.end, start, end)};
  };
  smoke.horizon.dense_windows.clear();
  for (const TimeWindow& w : spec.horizon.dense_windows) {
    TimeWindow c = clip(w);
    if (c.start < c.end) smoke.horizon.dense_windows.push_back(c);
  }
  smoke.events.clear();
  for (Event event : spec.events) {
    if (event.window.end <= start || event.window.start >= end) continue;
    event.window = clip(event.window);
    smoke.events.push_back(event);
  }
  smoke.faults.clear();
  for (const FaultSpec& fault : spec.faults)
    if (fault.when >= start && fault.when < end) smoke.faults.push_back(fault);
  return smoke;
}

}  // namespace rootsim::scenario
