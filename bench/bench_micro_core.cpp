// Microbenchmarks of the core primitives (google-benchmark): DNS wire
// codec, SHA-384, ZONEMD digesting of the full root zone, RSA sign/verify,
// zone signing, anycast route lookup, and the full 47-query probe.
#include <benchmark/benchmark.h>

#include <cstring>

#include "analysis/colocation.h"
#include "bench_common.h"
#include "crypto/sha2.h"
#include "dns/message.h"
#include "dnssec/signer.h"
#include "dnssec/validator.h"

using namespace rootsim;

namespace {

dns::Message priming_response() {
  dns::Message msg;
  msg.qr = true;
  msg.aa = true;
  msg.questions.push_back({dns::Name(), dns::RRType::NS, dns::RRClass::IN});
  for (char c = 'a'; c <= 'm'; ++c) {
    dns::ResourceRecord rr;
    rr.name = dns::Name();
    rr.type = dns::RRType::NS;
    rr.ttl = 518400;
    rr.rdata = dns::NsData{
        *dns::Name::parse(std::string(1, c) + ".root-servers.net.")};
    msg.answers.push_back(rr);
  }
  return msg;
}

void BM_MessageEncode(benchmark::State& state) {
  dns::Message msg = priming_response();
  for (auto _ : state) benchmark::DoNotOptimize(msg.encode());
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  auto wire = priming_response().encode();
  for (auto _ : state) benchmark::DoNotOptimize(dns::Message::decode(wire));
}
BENCHMARK(BM_MessageDecode);

void BM_Sha384(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x42);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha384(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha384)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_ZonemdDigest(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const dns::Zone& zone = campaign.authority().zone_at(bench::late_campaign());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dnssec::compute_zonemd_digest(zone, dns::ZonemdData::kHashSha384));
  state.counters["records"] = static_cast<double>(zone.record_count());
}
BENCHMARK(BM_ZonemdDigest);

void BM_ZoneValidate(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const dns::Zone& zone = campaign.authority().zone_at(bench::late_campaign());
  auto anchors = campaign.authority().trust_anchors();
  util::UnixTime now = bench::late_campaign(6 * 3600);
  for (auto _ : state)
    benchmark::DoNotOptimize(dnssec::validate_zone(zone, anchors, now));
}
BENCHMARK(BM_ZoneValidate);

void BM_RsaSignVerify(benchmark::State& state) {
  util::Rng rng(42);
  auto key = crypto::generate_rsa_key(rng, static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> msg(100, 7);
  for (auto _ : state) {
    auto sig = crypto::rsa_sign(key, crypto::RsaHash::Sha256, msg);
    benchmark::DoNotOptimize(
        crypto::rsa_verify(key.public_key, crypto::RsaHash::Sha256, msg, sig));
  }
}
BENCHMARK(BM_RsaSignVerify)->Arg(512)->Arg(1024);

// 100-byte messages that differ in their first eight bytes.
std::vector<uint8_t> numbered_message(uint64_t i) {
  std::vector<uint8_t> msg(100, 7);
  std::memcpy(msg.data(), &i, sizeof i);
  return msg;
}

// The signer's path: one RsaSignContext per key, built outside the timed
// loop, signing distinct messages (BM_RsaSignVerify rebuilds its contexts
// on every iteration).
void BM_RsaSign(benchmark::State& state) {
  util::Rng rng(42);
  auto key = crypto::generate_rsa_key(rng, static_cast<size_t>(state.range(0)));
  const crypto::RsaSignContext signer(key);
  uint64_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        signer.sign(crypto::RsaHash::Sha256, numbered_message(i++)));
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(768)->Arg(1024)->Arg(2048);

// The validator's path: one RsaVerifyContext per key (e = 65537), checking
// signatures over distinct messages.
void BM_RsaVerify(benchmark::State& state) {
  util::Rng rng(42);
  auto key = crypto::generate_rsa_key(rng, static_cast<size_t>(state.range(0)));
  const crypto::RsaSignContext signer(key);
  const crypto::RsaVerifyContext verifier(key.public_key);
  std::vector<std::vector<uint8_t>> messages, signatures;
  for (uint64_t i = 0; i < 64; ++i) {
    messages.push_back(numbered_message(i));
    signatures.push_back(signer.sign(crypto::RsaHash::Sha256, messages.back()));
  }
  size_t i = 0, verified = 0;
  for (auto _ : state) {
    const size_t k = i++ % messages.size();
    const bool ok =
        verifier.verify(crypto::RsaHash::Sha256, messages[k], signatures[k]);
    benchmark::DoNotOptimize(ok);
    verified += ok;
  }
  if (verified != i) state.SkipWithError("a signature failed to verify");
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(768)->Arg(1024)->Arg(2048);

void BM_SignZone(benchmark::State& state) {
  rss::RootCatalog catalog;
  rss::ZoneAuthorityConfig config;
  config.tld_count = 120;
  config.rsa_modulus_bits = 768;
  rss::ZoneAuthority authority(catalog, config);
  util::UnixTime t = bench::late_campaign();
  for (auto _ : state) {
    // zone_at caches per serial; force a rebuild by stepping days.
    t += util::kSecondsPerDay;
    benchmark::DoNotOptimize(&authority.zone_at(t));
  }
}
BENCHMARK(BM_SignZone)->Unit(benchmark::kMillisecond);

void BM_RouteLookup(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vps = campaign.vantage_points();
  size_t i = 0;
  for (auto _ : state) {
    const auto& vp = vps[i++ % vps.size()];
    benchmark::DoNotOptimize(campaign.router().route(
        vp.view, static_cast<uint32_t>(i % 13), util::IpFamily::V6));
  }
}
BENCHMARK(BM_RouteLookup);

void BM_SiteAtRound(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vp = campaign.vantage_points()[0];
  auto selection =
      campaign.router().prepare_selection(vp.view, 6, util::IpFamily::V6);
  uint64_t round = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        netsim::AnycastRouter::site_at_round(selection, round++));
}
BENCHMARK(BM_SiteAtRound);

void BM_FullProbe47Queries(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vp = campaign.vantage_points()[0];
  util::UnixTime now = bench::late_campaign(12 * 3600);
  uint64_t round = campaign.schedule().round_at(now);
  for (auto _ : state)
    benchmark::DoNotOptimize(campaign.prober().probe(
        vp, campaign.catalog().server(10).ipv4, now, round));
  state.SetLabel("46 dig queries + AXFR + traceroute");
}
BENCHMARK(BM_FullProbe47Queries)->Unit(benchmark::kMillisecond);

void BM_ColocationAnalysis(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::compute_colocation(campaign));
  state.SetLabel("675 VPs x 13 roots x 2 families");
}
BENCHMARK(BM_ColocationAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
