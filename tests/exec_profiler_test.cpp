// Exec-pool profiler: the ROOTSIM_PROFILE knob, the per-worker rollup math
// (busy time, critical path, imbalance), and the profiled parallel_for
// overload. The profiler's *wall* numbers are non-deterministic by nature;
// these tests only assert structural facts (counts, attribution, report
// shape), never timing values.
#include "exec/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/engine.h"

namespace rootsim::exec {
namespace {

struct ProfileEnvGuard {
  ~ProfileEnvGuard() { unsetenv("ROOTSIM_PROFILE"); }
};

TEST(Profiler, EnvKnobOffByDefaultAndForZero) {
  ProfileEnvGuard guard;
  unsetenv("ROOTSIM_PROFILE");
  EXPECT_FALSE(Profiler::enabled_by_env());
  setenv("ROOTSIM_PROFILE", "", 1);
  EXPECT_FALSE(Profiler::enabled_by_env());
  setenv("ROOTSIM_PROFILE", "0", 1);
  EXPECT_FALSE(Profiler::enabled_by_env());
}

TEST(Profiler, EnvKnobOnSelectsOutputPath) {
  ProfileEnvGuard guard;
  setenv("ROOTSIM_PROFILE", "1", 1);
  EXPECT_TRUE(Profiler::enabled_by_env());
  EXPECT_EQ(Profiler::env_output_path(), "PROF_exec_audit.json");
  setenv("ROOTSIM_PROFILE", "custom_profile.json", 1);
  EXPECT_TRUE(Profiler::enabled_by_env());
  EXPECT_EQ(Profiler::env_output_path(), "custom_profile.json");
}

TEST(Profiler, WorkerRollupAggregatesUnitSpans) {
  Profiler profiler;
  profiler.begin_region(/*unit_count=*/3, /*workers=*/2);
  // Synthetic spans: worker 0 runs units 0 and 1 back to back, worker 1 runs
  // unit 2. Times are caller-supplied, so the rollup math is exact.
  profiler.unit_done(0, 0, 10.0, 30.0);
  profiler.unit_done(1, 0, 30.0, 40.0);
  profiler.unit_done(2, 1, 10.0, 20.0);
  profiler.add_unit_sim_ms(0, 100.0);
  profiler.add_unit_sim_ms(2, 7.5);
  profiler.end_region();

  EXPECT_EQ(profiler.unit_count(), 3u);
  EXPECT_EQ(profiler.workers(), 2u);
  auto reports = profiler.worker_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].units, 2u);
  EXPECT_DOUBLE_EQ(reports[0].busy_ms, 30.0);
  EXPECT_DOUBLE_EQ(reports[0].first_begin_ms, 10.0);
  EXPECT_DOUBLE_EQ(reports[0].last_end_ms, 40.0);
  EXPECT_DOUBLE_EQ(reports[0].sim_ms, 100.0);
  EXPECT_EQ(reports[1].units, 1u);
  EXPECT_DOUBLE_EQ(reports[1].busy_ms, 10.0);
  EXPECT_DOUBLE_EQ(reports[1].sim_ms, 7.5);

  std::string json = profiler.to_json();
  for (const char* field :
       {"\"schema\":\"rootsim-exec-profile/2\"", "\"summary\":", "\"workers\":2",
        "\"units\":", "\"critical_path_ms\":", "\"parallel_efficiency\":",
        "\"imbalance\":", "\"tail_ms\":", "\"sched\":",
        "\"hardware_concurrency\":", "\"per_worker\":", "\"idle_ms\":",
        "\"steal_count\":"})
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
}

TEST(Profiler, BeginRegionResetsThePreviousRegion) {
  Profiler profiler;
  profiler.begin_region(5, 4);
  profiler.unit_done(4, 3, 0.0, 1.0);
  profiler.end_region();
  profiler.begin_region(2, 1);
  profiler.unit_done(0, 0, 0.0, 1.0);
  profiler.unit_done(1, 0, 1.0, 2.0);
  profiler.end_region();
  EXPECT_EQ(profiler.unit_count(), 2u);
  auto reports = profiler.worker_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].units, 2u);
}

TEST(Profiler, WriteEmitsParseableArtifact) {
  Profiler profiler;
  profiler.begin_region(1, 1);
  profiler.unit_done(0, 0, 0.0, 2.0);
  profiler.end_region();
  const std::string path = "PROF_profiler_test.json";
  ASSERT_TRUE(profiler.write(path));
  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  std::string contents(1 << 12, '\0');
  size_t n = std::fread(contents.data(), 1, contents.size(), in);
  std::fclose(in);
  std::remove(path.c_str());
  contents.resize(n);
  EXPECT_EQ(contents, profiler.to_json());
  EXPECT_FALSE(contents.empty());
}

TEST(ParallelFor, ProfiledOverloadRecordsEveryUnitOnItsShard) {
  constexpr size_t kUnits = 23;
  Profiler profiler;
  std::vector<std::atomic<int>> hits(kUnits);
  parallel_for(
      kUnits, 4, [&](size_t unit, size_t) { hits[unit].fetch_add(1); },
      &profiler);
  for (size_t unit = 0; unit < kUnits; ++unit)
    ASSERT_EQ(hits[unit].load(), 1) << unit;
  EXPECT_EQ(profiler.unit_count(), kUnits);
  size_t attributed = 0;
  for (const auto& report : profiler.worker_reports()) {
    attributed += report.units;
    EXPECT_GE(report.last_end_ms, report.first_begin_ms);
  }
  EXPECT_EQ(attributed, kUnits);
  EXPECT_GE(profiler.wall_ms(), 0.0);
}

TEST(ParallelFor, NullProfilerTakesThePlainPath) {
  std::vector<std::atomic<int>> hits(7);
  parallel_for(7, 2, [&](size_t unit, size_t) { hits[unit]++; }, nullptr);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace rootsim::exec
