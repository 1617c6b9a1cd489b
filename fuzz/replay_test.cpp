// Deterministic replay harness: runs every registered fuzz target over
//
//   1. its committed regression corpus (fuzz/corpus/<target>/*), and
//   2. >= 10k seeded iterations of generator output — structure-aware
//      mutations of valid messages, zones, transfers, pointer chains and
//      scenario specs, plus a slice of pure-random bytes,
//
// in plain gtest, so the exact code the libFuzzer binaries run is exercised
// by ctest on every build and under ASan/UBSan in CI without clang's fuzzer
// runtime. A failure prints (target, corpus file | seed/iteration) — that
// tuple is the whole reproducer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dns/axfr.h"
#include "fuzz/generators.h"
#include "fuzz/target.h"
#include "scenario/library.h"
#include "scenario/parser.h"
#include "util/rng.h"

#ifndef ROOTSIM_FUZZ_CORPUS_DIR
#define ROOTSIM_FUZZ_CORPUS_DIR "fuzz/corpus"
#endif

namespace rootsim::fuzz {
namespace {

constexpr size_t kIterationsPerTarget = 10500;

const Target* find_target(const std::string& name) {
  for (const auto& target : targets())
    if (target.name == name) return &target;
  return nullptr;
}

std::vector<std::filesystem::path> corpus_files(const std::string& target) {
  std::vector<std::filesystem::path> files;
  std::filesystem::path dir =
      std::filesystem::path(ROOTSIM_FUZZ_CORPUS_DIR) / target;
  if (std::filesystem::is_directory(dir))
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Fresh structurally-valid seed artifacts for a target; the harness mutates
// these. Rotating over several shapes per target keeps the mutation
// neighborhoods diverse.
std::vector<uint8_t> seed_input(const std::string& target, util::Rng& rng,
                                size_t iteration) {
  if (target == "message_decode")
    return (iteration % 2 ? random_response(rng) : random_query(rng)).encode();
  if (target == "name_decode") {
    auto chain = pointer_chain_name(rng, 1 + rng.uniform(70));
    std::vector<uint8_t> input;
    input.push_back(static_cast<uint8_t>(chain.final_name_offset >> 8));
    input.push_back(static_cast<uint8_t>(chain.final_name_offset));
    input.insert(input.end(), chain.bytes.begin(), chain.bytes.end());
    return input;
  }
  if (target == "rdata_decode") {
    auto msg = random_response(rng);
    if (msg.answers.empty()) return {0x00, 0x01};
    const auto& rr = msg.answers[rng.uniform(msg.answers.size())];
    auto rdata = dns::encode_rdata(rr.rdata, /*canonical=*/false);
    std::vector<uint8_t> input;
    input.push_back(static_cast<uint8_t>(static_cast<uint16_t>(rr.type) >> 8));
    input.push_back(static_cast<uint8_t>(static_cast<uint16_t>(rr.type)));
    input.insert(input.end(), rdata.begin(), rdata.end());
    return input;
  }
  if (target == "zone_parse") {
    auto text = random_zone(rng, 1 + rng.uniform(5)).to_master_file();
    return std::vector<uint8_t>(text.begin(), text.end());
  }
  if (target == "axfr_stream") {
    auto zone = random_zone(rng, 1 + rng.uniform(4));
    dns::Question question{zone.origin(), dns::RRType::AXFR, dns::RRClass::IN};
    dns::AxfrStreamOptions options;
    // Small budgets force multi-message streams, the reassembly-heavy shape.
    options.max_message_bytes = 256 + rng.uniform(1024);
    return dns::encode_axfr_stream(zone.axfr_records(), question, options);
  }
  if (target == "validation") return shared_signed_zone().axfr_stream;
  if (target == "denial") {
    const SignedZoneFixture& fixture = shared_signed_zone();
    dns::Message response;
    response.id = static_cast<uint16_t>(rng.next());
    response.qr = true;
    response.aa = true;
    response.rcode = dns::Rcode::NxDomain;
    response.questions.push_back({*dns::Name::parse("nonexistent-tld."),
                                  dns::RRType::A, dns::RRClass::IN});
    // All NSEC rrsets plus their covering RRSIGs form the denial evidence.
    for (const dns::RRset* set : fixture.zone.rrsets()) {
      if (set->type == dns::RRType::NSEC) {
        for (const auto& rr : set->to_records())
          response.authority.push_back(rr);
        const dns::RRset* sigs =
            fixture.zone.find(set->name, dns::RRType::RRSIG);
        if (sigs)
          for (const auto& rr : sigs->to_records())
            if (const auto* sig = std::get_if<dns::RrsigData>(&rr.rdata);
                sig && sig->type_covered == dns::RRType::NSEC)
              response.authority.push_back(rr);
      }
    }
    return response.encode();
  }
  if (target == "scenario_parse") {
    // The library's specs in their canonical text, the form --dump writes.
    static const std::vector<std::string> texts = [] {
      std::vector<std::string> out;
      for (const auto& spec : scenario::library())
        out.push_back(scenario::serialize_scenario(spec));
      return out;
    }();
    const std::string& text = texts[iteration % texts.size()];
    return std::vector<uint8_t>(text.begin(), text.end());
  }
  // zone_diff and anything new: the input is an opaque edit script.
  return random_bytes(rng, 64);
}

class Replay : public ::testing::TestWithParam<const char*> {};

TEST_P(Replay, CommittedCorpusRunsClean) {
  const Target* target = find_target(GetParam());
  ASSERT_NE(target, nullptr);
  auto files = corpus_files(target->name);
  // Every target ships seeds; an empty directory means the corpus was not
  // generated/committed and regressions would go unreplayed.
  EXPECT_FALSE(files.empty())
      << "no corpus for " << target->name << " under " << ROOTSIM_FUZZ_CORPUS_DIR;
  for (const auto& file : files) {
    SCOPED_TRACE(file.string());
    auto bytes = read_file(file);
    EXPECT_EQ(target->run(bytes.data(), bytes.size()), 0);
  }
}

TEST_P(Replay, SeededIterationsRunClean) {
  const Target* target = find_target(GetParam());
  ASSERT_NE(target, nullptr);
  util::Rng rng(util::fnv1a(target->name));
  for (size_t iteration = 0; iteration < kIterationsPerTarget; ++iteration) {
    SCOPED_TRACE(std::string(target->name) + " iteration " +
                 std::to_string(iteration));
    std::vector<uint8_t> input;
    if (iteration % 16 == 15) {
      // A slice of pure-random bytes keeps the shallow rejection paths hot.
      input = random_bytes(rng, 512);
    } else {
      input = seed_input(target->name, rng, iteration);
      // Mutate most of the time, but feed some seeds through untouched so
      // the valid-input invariants (fixpoints, full validation) stay pinned.
      if (iteration % 8 != 0) input = mutate(input, rng);
    }
    ASSERT_EQ(target->run(input.data(), input.size()), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, Replay,
                         ::testing::Values("message_decode", "name_decode",
                                           "rdata_decode", "zone_parse",
                                           "axfr_stream", "zone_diff",
                                           "validation", "denial",
                                           "scenario_parse"),
                         [](const auto& info) { return std::string(info.param); });

// The registry and the instantiation above must agree; a target added
// without replay coverage is exactly the gap this harness exists to close.
TEST(Registry, EveryTargetHasReplayCoverage) {
  EXPECT_EQ(targets().size(), 9u);
  for (const auto& target : targets())
    EXPECT_NE(find_target(target.name), nullptr);
}

}  // namespace
}  // namespace rootsim::fuzz
