// The built-in scenario library: the committed examples/scenarios/*.scn
// files, embedded at build time (src/scenario/CMakeLists.txt) and parsed on
// each call. Every timeline instant the repo ever had lives in them, as data:
//
//   * paper-2023        — the paper's full 174-day campaign (Fig. 2): the
//                         ZONEMD roll, the b.root renumbering, the Table 2
//                         fault plan. Applying it reproduces the seed
//                         pipeline byte-for-byte (the refactor's proof).
//   * froot-buildout    — a multi-year F-ROOT-style regional buildout
//                         replay: the letter's Asia sites activate in
//                         deterministic batches and the catchment RTT trend
//                         falls out of the standard SLO pipeline.
//   * anycast-catchment — anycast-vs-unicast comparison: one letter is
//                         collapsed to a single global site and measured
//                         against the wide anycast deployments on the same
//                         topology seed.
//   * ddos-c-globals    — clustered DDoS on one letter's global sites; the
//                         SLO plane must open, attribute, and close the
//                         incident at any worker count.
//
// To change a spec, edit its file; `scenario_lab --dump <name>` prints the
// canonical form the file must keep. A file that does not parse stops the
// process with the parser's message.
#pragma once

#include "scenario/spec.h"

namespace rootsim::scenario {

ScenarioSpec paper_2023();
ScenarioSpec froot_buildout();
ScenarioSpec anycast_catchment();
ScenarioSpec ddos_c_globals();

/// Every built-in spec, in the order above.
std::vector<ScenarioSpec> library();

/// Copies the library spec called `name` into `out` (when non-null); false
/// when no spec has that name.
bool find_scenario(const std::string& name, ScenarioSpec* out);

/// A shortened variant for smoke tests: clamps the horizon to ~16 days
/// around the first event (or the horizon start), clips windows, and drops
/// faults/dense windows that fall outside. Deterministic; `-smoke` suffix.
ScenarioSpec smoke_variant(const ScenarioSpec& spec);

}  // namespace rootsim::scenario
