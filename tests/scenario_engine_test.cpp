#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "measure/campaign.h"
#include "scenario/apply.h"
#include "scenario/library.h"
#include "scenario/parser.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timeutil.h"

// Where the committed .scn files live; injected by tests/CMakeLists.txt so
// the binary finds them regardless of ctest's working directory.
#ifndef ROOTSIM_SCENARIO_DIR
#define ROOTSIM_SCENARIO_DIR "../../examples/scenarios"
#endif

namespace rootsim::scenario {
namespace {

using util::make_time;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ScenarioParser, LibrarySpecsSurviveARoundTrip) {
  std::vector<ScenarioSpec> specs = library();
  // The smoke variants are the library's only specs built in code.
  for (const ScenarioSpec& spec : library()) specs.push_back(smoke_variant(spec));
  // Numbers past "%g"'s six significant digits: printed that way,
  // fraction=0.9000001 read back as 0.9.
  ScenarioSpec precise = ddos_c_globals();
  ASSERT_FALSE(precise.events.empty());
  precise.name = "precise";
  precise.events[0].site_fraction = 0.9000001;
  precise.events[0].loss = 0.1 + 0.2;
  precise.events[0].extra_rtt_ms = 123456789.125;
  precise.events[0].jitter_ms = 1e-300;
  specs.push_back(precise);
  for (const ScenarioSpec& spec : specs) {
    ScenarioSpec again;
    std::string error;
    ASSERT_TRUE(parse_scenario(serialize_scenario(spec), &again, &error))
        << spec.name << ": " << error;
    EXPECT_TRUE(again == spec) << spec.name << ": round trip changed the spec";
  }
}

TEST(ScenarioParser, CommittedFilesMatchTheLibrary) {
  // The .scn files in examples/scenarios/ are the library: the build embeds
  // them. This reads each file from disk, so an embed older than its file
  // (a build that did not re-embed an edit) fails here.
  for (const ScenarioSpec& spec : library()) {
    std::string text =
        read_file(std::string(ROOTSIM_SCENARIO_DIR) + "/" + spec.name + ".scn");
    ASSERT_FALSE(text.empty()) << spec.name;
    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(parse_scenario(text, &parsed, &error))
        << spec.name << ": " << error;
    EXPECT_TRUE(parsed == spec)
        << spec.name << ".scn differs from the embedded copy — re-run cmake "
           "so the build re-embeds it";
  }
}

TEST(ScenarioParser, RejectsUnknownDirectiveWithLineNumber) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(parse_scenario("scenario x\nnot-a-directive 1\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioParser, RejectsMalformedTime) {
  // A time must be written exactly as util::format_datetime writes it. All
  // but the first of these used to parse: sscanf took 2023-02-30 as March 2,
  // ignored whatever followed the seconds, and read a hour of 99999999,
  // whose seconds overflow an int.
  for (const char* start :
       {"yesterday", "2023-02-30T00:00:00Z", "2023-07-03T00:00:00Zjunk",
        "2023-07-03T00:00:00", "2023-7-03T00:00:00Z", "2023-07-03T24:00:00Z",
        "2023-07-03T99999999:00:00Z", "2023-07-03T00:00:-1Z"}) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parse_scenario(std::string("scenario x\nhorizon ") + start +
                                    " 2023-12-24T00:00:00Z\n",
                                &spec, &error))
        << start;
    EXPECT_EQ(error, "line 2: horizon wants <start> <end>") << start;
  }
}

TEST(ScenarioParser, RejectsNonPositiveIntervalsWithLineNumber) {
  // froot-buildout with its `intervals` line zeroed used to parse, then
  // crash the run building an endless schedule.
  const std::string text = serialize_scenario(froot_buildout());
  const size_t at = text.find("intervals ");
  ASSERT_NE(at, std::string::npos);
  const size_t line = 1 + static_cast<size_t>(std::count(text.begin(),
                                                         text.begin() + at, '\n'));
  for (const char* intervals : {"intervals 0 0", "intervals 3600 0",
                                "intervals -60 900", "intervals x 900"}) {
    std::string bad = text;
    bad.replace(at, bad.find('\n', at) - at, intervals);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parse_scenario(bad, &spec, &error)) << intervals;
    EXPECT_NE(error.find(util::format("line %zu: intervals must be positive", line)),
              std::string::npos)
        << intervals << ": " << error;
  }
}

TEST(ScenarioParser, RejectsBadNumbersWithLineNumber) {
  // Each of these used to pass --check: atof/atoi/strtoull read `abc` as 0
  // and `8x` as 8, and nothing checked the ranges. A negative deployment
  // count then crashed the run.
  const struct {
    const char* directive;  // edits the first library line it starts
    const char* key;        // the field to replace, or "" for the whole line
    const char* bad;
    const char* error;  // after "line N: "; null for "bad <directive> field"
  } cases[] = {
      {"seed", "", "seed 42x", "seed wants one number"},
      {"seed", "", "seed -1", "seed wants one number"},
      {"seed", "", "seed 0x2a", "seed wants one number"},
      {"seed", "", "seed 18446744073709551616", "seed wants one number"},
      {"intervals", "", "intervals 3600s 1h",
       "intervals must be positive whole seconds"},
      {"intervals", "", "intervals 1800 1.5",
       "intervals must be positive whole seconds"},
      {"intervals", "", "intervals 1e3 900",
       "intervals must be positive whole seconds"},
      {"deployment", "", "deployment c global 0,0,0,-1,0,0 local 0,0,0,0,0,0",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,,1,0,0 local 0,0,0,0,0,0",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,0,1,0,0 local 0,0,0,0,0,",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,0,1,0,0, local 0,0,0,0,0,0",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,0,1,0 local 0,0,0,0,0,0",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,0,1,0,0,0 local 0,0,0,0,0,0",
       "deployment wants"},
      {"deployment", "", "deployment c global 0,0,0,1x,0,0 local 0,0,0,0,0,0",
       "deployment wants"},
      // A letter without a global site has no site most VPs reach: the run
      // crashed routing to it.
      {"deployment", "", "deployment c global 0,0,0,0,0,0 local 0,0,0,0,0,0",
       "deployment needs at least one global site"},
      {"deployment", "", "deployment c global 0,0,0,0,0,0 local 1,0,0,0,0,0",
       "deployment needs at least one global site"},
      {"event", "fraction", "fraction=7", nullptr},
      {"event", "fraction", "fraction=-0.1", nullptr},
      {"event", "fraction", "fraction=abc", nullptr},
      {"event", "fraction", "fraction=nan", nullptr},
      {"event", "fraction", "fraction=", nullptr},
      {"event", "loss", "loss=2.5", nullptr},
      {"event", "loss", "loss=0.3x", nullptr},
      {"event", "extra-rtt", "extra-rtt=-5", nullptr},
      {"event", "extra-rtt", "extra-rtt=inf", nullptr},
      {"event", "jitter", "jitter=1e999", nullptr},
      {"event", "jitter", "jitter=ten", nullptr},
      {"event", "stages", "stages=-3", nullptr},
      {"event", "stages", "stages=0", nullptr},
      {"event", "stages", "stages=8x", nullptr},
      {"event", "stages", "stages=1.5", nullptr},
      {"event", "stages", "stages=99999999999", nullptr},
      {"fault", "vp", "vp=abc", nullptr},
      {"fault", "vp", "vp=-1", nullptr},
      {"fault", "vp", "vp=4294967296", nullptr},
      {"fault", "vp", "vp=", nullptr},
      {"fault", "offset", "offset=3d", nullptr},
      {"fault", "offset", "offset=1.5", nullptr},
      {"fault", "offset", "offset=", nullptr},
      {"fault", "table2", "table2=one", nullptr},
      {"fault", "table2", "table2=-1", nullptr},
      {"fault", "table2", "table2=1.5", nullptr},
      {"fault", "old-b", "old-b=2", nullptr},
      {"fault", "old-b", "old-b=yes", nullptr},
      {"fault", "old-b", "old-b=", nullptr},
      // Windows must end after they start, and events and dense windows
      // must lie inside the horizon (2023-07-03 .. 2023-12-24 here).
      {"horizon", "", "horizon 2023-12-24T00:00:00Z 2023-07-03T00:00:00Z",
       "horizon end must be after its start"},
      {"horizon", "", "horizon 2023-07-03T00:00:00Z 2023-07-03T00:00:00Z",
       "horizon end must be after its start"},
      {"dense-window", "", "dense-window 2023-10-02T00:00:00Z 2023-09-08T00:00:00Z",
       "dense-window end must be after its start"},
      {"dense-window", "", "dense-window 2023-06-20T00:00:00Z 2023-07-10T00:00:00Z",
       "dense-window is not inside the horizon"},
      {"dense-window", "", "dense-window 2031-03-18T00:00:00Z 2031-03-28T00:00:00Z",
       "dense-window is not inside the horizon"},
      {"czds-broken", "", "czds-broken 2023-12-08T00:00:00Z 2023-09-21T00:00:00Z",
       "czds-broken end must be after its start"},
      {"event", "end", "end=2023-11-27T00:00:00Z",
       "event end must be after its start"},
      {"event", "start", "start=2023-07-01T00:00:00Z",
       "event window is not inside the horizon"},
      {"event", "end", "end=2031-03-24T00:00:00Z",
       "event window is not inside the horizon"},
      // ddos-c-globals's event with its window inverted, then moved to
      // 2031: `scenario_lab --check` printed ok for both.
      {"event", "",
       "event ddos letter=c region=- start=2026-03-24T00:00:00Z "
       "end=2026-03-20T00:00:00Z fraction=0.9 loss=0.3 extra-rtt=120 jitter=0 "
       "stages=8 label=ddos-c-globals",
       "event end must be after its start"},
      {"event", "",
       "event ddos letter=c region=- start=2031-03-20T00:00:00Z "
       "end=2031-03-24T00:00:00Z fraction=0.9 loss=0.3 extra-rtt=120 jitter=0 "
       "stages=8 label=ddos-c-globals",
       "event window is not inside the horizon"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.bad);
    const std::string directive = std::string("\n") + c.directive + " ";
    const std::string key = std::string(" ") + c.key + "=";
    std::string text;
    size_t at = std::string::npos;
    for (const ScenarioSpec& spec : library()) {
      text = serialize_scenario(spec);
      for (at = text.find(directive); at != std::string::npos;
           at = text.find(directive, at + 1)) {
        if (!*c.key || text.substr(at, text.find('\n', at + 1) - at).find(key) !=
                           std::string::npos)
          break;
      }
      if (at != std::string::npos) break;
    }
    ASSERT_NE(at, std::string::npos) << "no library line to edit";
    ++at;  // past the newline
    const size_t line = 1 + static_cast<size_t>(std::count(text.begin(),
                                                           text.begin() + at, '\n'));
    const size_t line_end = text.find('\n', at);
    std::string edited = c.bad;
    if (*c.key) {
      edited = text.substr(at, line_end - at);
      const size_t field_at = edited.find(key) + 1;
      const size_t field_end = std::min(edited.find(' ', field_at), edited.size());
      edited.replace(field_at, field_end - field_at, c.bad);
    }
    text.replace(at, line_end - at, edited);
    const std::string want =
        util::format("line %zu: ", line) +
        (c.error ? std::string(c.error)
                 : std::string("bad ") + c.directive + " field " + c.bad);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parse_scenario(text, &spec, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
}

TEST(ScenarioLibrary, FindScenarioByName) {
  ScenarioSpec spec;
  EXPECT_TRUE(find_scenario("paper-2023", &spec));
  EXPECT_EQ(spec.name, "paper-2023");
  EXPECT_FALSE(find_scenario("no-such-scenario", &spec));
}

TEST(ScenarioLibrary, PaperSpecCarriesTheTimeline) {
  ScenarioSpec spec = paper_2023();
  EXPECT_EQ(spec.horizon.start, make_time(2023, 7, 3));
  EXPECT_EQ(spec.horizon.end, make_time(2023, 12, 24));
  EXPECT_EQ(renumbering_time(spec), make_time(2023, 11, 27));
  EXPECT_EQ(spec.zone.zonemd_private_start, make_time(2023, 9, 13));
  EXPECT_EQ(spec.faults.size(), 66u);  // Table 2 plan
}

TEST(ScenarioLibrary, SmokeVariantIsDeterministicAndShort) {
  for (const ScenarioSpec& spec : library()) {
    ScenarioSpec smoke = smoke_variant(spec);
    EXPECT_TRUE(smoke == smoke_variant(spec)) << spec.name;
    EXPECT_EQ(smoke.name, spec.name + "-smoke");
    EXPECT_GE(smoke.horizon.start, spec.horizon.start) << spec.name;
    EXPECT_LE(smoke.horizon.end, spec.horizon.end) << spec.name;
    EXPECT_LE(smoke.horizon.end - smoke.horizon.start,
              17 * util::kSecondsPerDay)
        << spec.name;
  }
}

// Runs a smoke variant's SLO timeline at a reduced zone scale and returns
// the result (exports + incidents).
measure::SloTimelineResult run_smoke(const ScenarioSpec& smoke,
                                     size_t workers) {
  Applied applied = apply(smoke);
  applied.campaign.zone.tld_count = 25;
  applied.campaign.zone.rsa_modulus_bits = 512;
  applied.slo.workers = workers;
  measure::Campaign campaign(applied.campaign);
  return campaign.run_slo_timeline(smoke, applied.slo);
}

TEST(ScenarioRun, ExportsCarryTheScenarioHeader) {
  ScenarioSpec smoke = smoke_variant(ddos_c_globals());
  measure::SloTimelineResult result = run_smoke(smoke, 1);
  const std::string header = "{\"scenario\":\"ddos-c-globals-smoke\"}\n";
  EXPECT_EQ(result.slo_jsonl.substr(0, header.size()), header);
  EXPECT_EQ(result.incidents_jsonl.substr(0, header.size()), header);
}

TEST(ScenarioRun, DdosIncidentClosesAndIsAttributedAtAnyWorkerCount) {
  ScenarioSpec smoke = smoke_variant(ddos_c_globals());
  // Byte-identical exports at every worker count, and the scripted DDoS on
  // c.root must open, attribute, and close at each.
  measure::SloTimelineResult reference = run_smoke(smoke, 1);
  for (size_t workers : {1u, 2u, 8u}) {
    measure::SloTimelineResult result = run_smoke(smoke, workers);
    EXPECT_EQ(result.slo_jsonl, reference.slo_jsonl) << workers << " workers";
    EXPECT_EQ(result.incidents_jsonl, reference.incidents_jsonl)
        << workers << " workers";
    bool attributed = false;
    for (const obs::Incident& incident : result.incidents) {
      if (incident.cause != "ddos-c-globals") continue;
      attributed = true;
      EXPECT_EQ(incident.root, 2u);  // c.root
      EXPECT_EQ(incident.metric, obs::SloMetric::Availability);
      EXPECT_GT(incident.closed, incident.opened);  // closed, not open
    }
    EXPECT_TRUE(attributed)
        << workers << " workers: no incident attributed to the DDoS";
  }
}

TEST(ScenarioRun, EveryLibraryScenarioIsWorkerAndScheduleInvariant) {
  // One parallel run per scenario keeps this cheap; the CI smoke job runs
  // 1, 2 and 8 workers through scenario_lab.
  for (const ScenarioSpec& spec : library()) {
    ScenarioSpec smoke = smoke_variant(spec);
    measure::SloTimelineResult serial = run_smoke(smoke, 1);
    measure::SloTimelineResult parallel = run_smoke(smoke, 3);
    EXPECT_EQ(serial.slo_jsonl, parallel.slo_jsonl) << spec.name;
    EXPECT_EQ(serial.incidents_jsonl, parallel.incidents_jsonl) << spec.name;
    EXPECT_GT(serial.windows.size(), 0u) << spec.name;
  }
}

// A ZONEMD rollout that enters the private-algorithm phase and never
// switches to SHA-384: the integrity breach lasts to the horizon's end, and
// so must the rollout hint that attributes it.
TEST(ScenarioRun, ZonemdRolloutWithoutASwitchIsAttributed) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      "scenario zonemd-stuck\n"
      "horizon 2025-03-01T00:00:00Z 2025-03-15T00:00:00Z\n"
      "intervals 1800 900\n"
      "zonemd-private 2025-03-05T00:00:00Z\n",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.zone.zonemd_sha384_start, 0);
  const measure::SloTimelineResult result = run_smoke(spec, 2);
  size_t integrity = 0;
  for (const obs::Incident& incident : result.incidents) {
    if (incident.metric != obs::SloMetric::Integrity) continue;
    ++integrity;
    EXPECT_EQ(incident.cause, "zonemd-private-algorithm")
        << "letter " << static_cast<char>('a' + incident.root);
    EXPECT_TRUE(incident.open()) << "nothing heals it before the horizon";
  }
  EXPECT_EQ(integrity, 26u) << result.incidents_jsonl;
}

// FNV-1a 64 of slo.jsonl + incidents.jsonl, in hex.
std::string export_digest(const measure::SloTimelineResult& result) {
  return util::format("%016llx",
                      static_cast<unsigned long long>(util::fnv1a(
                          result.slo_jsonl + result.incidents_jsonl)));
}

TEST(ScenarioRun, SmokeExportsMatchRecordedDigests) {
  // The invariance suites above compare runs with each other, so a change
  // that moves every worker count's exports alike passes them. These
  // digests pin the bytes themselves; re-record them only for an intended
  // change of the exports.
  const std::map<std::string, std::string> expected = {
      {"paper-2023", "d3d45d6a427ee409"},
      {"froot-buildout", "3d98b53b11a7ecdc"},
      {"anycast-catchment", "0018d1b2a8862364"},
      {"ddos-c-globals", "c15f4b45d1aaf5ea"},
  };
  ASSERT_EQ(library().size(), expected.size());
  for (const ScenarioSpec& spec : library()) {
    const auto it = expected.find(spec.name);
    ASSERT_NE(it, expected.end()) << spec.name << ": no recorded digest";
    EXPECT_EQ(export_digest(run_smoke(smoke_variant(spec), 1)),
              it->second)
        << spec.name;
  }
}

}  // namespace
}  // namespace rootsim::scenario
