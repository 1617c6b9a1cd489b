// The .scn text format: scenarios as data. The library's specs are the
// files examples/scenarios/*.scn, embedded at build time (scenario/library.h).
//
// Line-oriented, one directive per line, '#' starts a comment. Times are
// ISO-8601 UTC written exactly in util::format_datetime's form
// ("2023-07-03T00:00:00Z") for a real calendar instant.
//
//   scenario <name>
//   description <free text>
//   seed <n>
//   horizon <start> <end>
//   intervals <base_s> <dense_s>
//   dense-window <start> <end>
//   zonemd-private <t>
//   zonemd-sha384 <t>
//   ksk-roll <t>
//   czds-broken <start> <end>
//   route-fallback on|off
//   deployment <letter> global <n,n,n,n,n,n> local <n,n,n,n,n,n>
//         (per-region site counts; at least one global site)
//   event <kind> letter=<a..m|-> region=<AF|AS|EU|NA|SA|OC|-> start=<t>
//         end=<t> fraction=<f> loss=<f> extra-rtt=<f> jitter=<f>
//         stages=<n> label=<free text>
//   fault <kind> vp=<n> root=<a..m|-> family=<v4|v6> old-b=<0|1> when=<t>
//         offset=<s> frozen=<t|-> table2=<n>
//
// serialize_scenario() emits the canonical form, which every library file
// keeps (`scenario_lab --dump <name>` prints it); parse_scenario() accepts it
// back (parse ∘ serialize is the identity — the round-trip test). The
// canonical form holds no comments.
#pragma once

#include <string>
#include <string_view>

#include "scenario/spec.h"

namespace rootsim::scenario {

/// Parses the text form into `out`. On failure returns false and, when
/// `error` is non-null, stores a "line N: what" message. Every window must
/// end after it starts, and each event and dense window must lie inside the
/// horizon.
bool parse_scenario(std::string_view text, ScenarioSpec* out,
                    std::string* error = nullptr);

/// Canonical text form of a spec. Event numbers print in the shortest form
/// that reads back exactly (std::to_chars), so no digit is lost.
std::string serialize_scenario(const ScenarioSpec& spec);

}  // namespace rootsim::scenario
