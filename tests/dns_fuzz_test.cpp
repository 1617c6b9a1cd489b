// Robustness properties of the wire-facing parsers, driven by the fuzz/
// generators: structure-aware mutations of valid messages and handcrafted
// compression-pointer abuse, not just random bytes. The heavy lifting
// (committed corpora + 10k seeded iterations per target) lives in
// fuzz_replay_test; these tests keep the same generators exercised in the
// ordinary dns test suite and pin behaviours with precise assertions.
#include <gtest/gtest.h>

#include "dns/axfr.h"
#include "dns/message.h"
#include "dns/zone.h"
#include "fuzz/generators.h"
#include "util/rng.h"

namespace rootsim::dns {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, RandomBytesNeverCrashDecoders) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    auto bytes = fuzz::random_bytes(rng, 600);
    if (auto message = Message::decode(bytes)) {
      (void)message->encode();
    }
    WireReader reader(bytes);
    Name name = reader.get_name();
    if (reader.ok()) {
      EXPECT_LE(name.wire_length(), 255u);
    }
    (void)decode_axfr_stream(bytes);
  }
}

TEST_P(FuzzSeeds, MutatedValidMessagesNeverCrashDecoder) {
  util::Rng rng(GetParam());
  size_t parsed_ok = 0, parsed_fail = 0;
  for (int iteration = 0; iteration < 400; ++iteration) {
    Message original =
        iteration % 2 ? fuzz::random_response(rng) : fuzz::random_query(rng);
    auto mutated = fuzz::mutate(original.encode(), rng);
    auto message = Message::decode(mutated);
    if (!message) {
      ++parsed_fail;
      continue;
    }
    ++parsed_ok;
    // Retraction property: one more decode/encode trip is a fixpoint.
    auto e1 = message->encode();
    auto reparsed = Message::decode(e1);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->encode(), e1);
  }
  // Structure-aware mutation must land on both sides of validity; all-pass
  // would mean the mutator is too timid, all-fail too destructive.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(parsed_fail, 0u);
}

TEST_P(FuzzSeeds, MutatedPointerChainsNeverCrashNameDecoder) {
  util::Rng rng(GetParam());
  size_t parsed_ok = 0;
  for (int iteration = 0; iteration < 600; ++iteration) {
    auto chain = fuzz::pointer_chain_name(rng, 1 + rng.uniform(70));
    auto bytes = iteration % 4 == 0 ? chain.bytes
                                    : fuzz::mutate(chain.bytes, rng);
    WireReader reader(bytes);
    reader.seek(std::min(chain.final_name_offset, bytes.size()));
    Name name = reader.get_name();
    if (!reader.ok()) continue;
    ++parsed_ok;
    EXPECT_LE(name.wire_length(), 255u);
    EXPECT_LE(name.label_count(), 127u);
    EXPECT_LE(reader.offset(), bytes.size());
  }
  EXPECT_GT(parsed_ok, 0u);
}

TEST_P(FuzzSeeds, MutatedAxfrStreamsNeverCrashDecoder) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 100; ++iteration) {
    auto zone = fuzz::random_zone(rng, 1 + rng.uniform(3));
    Question question{zone.origin(), RRType::AXFR, RRClass::IN};
    AxfrStreamOptions options;
    options.max_message_bytes = 256 + rng.uniform(1024);
    auto wire = encode_axfr_stream(zone.axfr_records(), question, options);
    auto mutated = fuzz::mutate(wire, rng);
    auto parsed = decode_axfr_stream(mutated);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error->empty());
    }
  }
}

TEST_P(FuzzSeeds, MutatedZoneFilesNeverCrashParser) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 100; ++iteration) {
    auto text = fuzz::random_zone(rng, 1 + rng.uniform(3)).to_master_file();
    std::vector<uint8_t> bytes(text.begin(), text.end());
    bytes = fuzz::mutate(bytes, rng);
    std::string mutated(bytes.begin(), bytes.end());
    std::string error;
    auto zone = Zone::parse_master_file(mutated, &error);
    if (!zone) {
      EXPECT_FALSE(error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Mutation, EveryByteFlipHandledGracefully) {
  util::Rng rng(20240101);
  auto wire = fuzz::random_response(rng).encode();
  size_t parsed_ok = 0, parsed_fail = 0;
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (uint8_t bit : {0x01, 0x80}) {
      auto mutated = wire;
      mutated[byte] ^= bit;
      if (auto message = Message::decode(mutated)) {
        ++parsed_ok;
        (void)message->encode();  // must not crash either
      } else {
        ++parsed_fail;
      }
    }
  }
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(parsed_fail, 0u);
}

TEST(Mutation, TruncationAtEveryLengthHandled) {
  util::Rng rng(20240102);
  auto wire = fuzz::random_response(rng).encode();
  for (size_t length = 0; length < wire.size(); ++length) {
    std::span<const uint8_t> prefix(wire.data(), length);
    // With intact section counts, no strict prefix can parse.
    EXPECT_FALSE(Message::decode(prefix).has_value()) << "length " << length;
  }
  EXPECT_TRUE(Message::decode(wire).has_value());
}

}  // namespace
}  // namespace rootsim::dns
