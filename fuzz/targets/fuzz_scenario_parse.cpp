// Scenario specs (.scn) on hostile text. A spec that parses must serialize
// to text that parses back to the identical spec and serializes to the same
// text again (serialize ∘ parse is a fixpoint), so --dump can never drift
// from what a file says; a spec that does not parse must say why.
#include <string>
#include <string_view>

#include "fuzz/target.h"
#include "scenario/parser.h"

namespace rootsim::fuzz {

ROOTSIM_FUZZ_TARGET(scenario_parse) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::parse_scenario(text, &spec, &error)) {
    ROOTSIM_FUZZ_EXPECT(scenario_parse, !error.empty());
    return 0;
  }
  const std::string canonical = scenario::serialize_scenario(spec);
  scenario::ScenarioSpec again;
  ROOTSIM_FUZZ_EXPECT(scenario_parse,
                      scenario::parse_scenario(canonical, &again, &error));
  ROOTSIM_FUZZ_EXPECT(scenario_parse, again == spec);
  ROOTSIM_FUZZ_EXPECT(scenario_parse,
                      scenario::serialize_scenario(again) == canonical);
  return 0;
}

}  // namespace rootsim::fuzz
