// Writes the seed corpora under fuzz/corpus/<target>/ — structurally valid
// messages, transfers, zones, pointer chains and scenario specs produced by
// the same generators the replay harness mutates, so the whole corpus
// reproduces from a clean checkout:
//
//   ./fuzz_gen_corpus [corpus_dir]      (default: fuzz/corpus)
//
// Seeds are deterministic (fixed Rng seeds); re-running overwrites files
// byte-identically, so `git status` staying clean doubles as a regression
// check on the generators.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dns/axfr.h"
#include "fuzz/generators.h"
#include "scenario/library.h"
#include "scenario/parser.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace rootsim;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(),
              bytes.size());
}

std::vector<uint8_t> to_bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  util::Rng rng(7);

  // message_decode: prober-shaped queries and responses, plus an RFC 8109
  // priming-style referral (root NS + glue in additional).
  for (int i = 0; i < 4; ++i)
    write_seed(root / "message_decode", "query-" + std::to_string(i) + ".bin",
               fuzz::random_query(rng).encode());
  for (int i = 0; i < 6; ++i)
    write_seed(root / "message_decode", "response-" + std::to_string(i) + ".bin",
               fuzz::random_response(rng).encode());
  {
    dns::Message priming = dns::make_query(0x2024, dns::Name(),
                                           dns::RRType::NS, dns::RRClass::IN,
                                           /*dnssec_ok=*/true);
    priming.qr = true;
    priming.aa = true;
    for (char c = 'a'; c <= 'm'; ++c) {
      std::string host = std::string(1, c) + ".root-servers.net.";
      priming.answers.push_back({dns::Name(), dns::RRType::NS,
                                 dns::RRClass::IN, 518400,
                                 dns::NsData{*dns::Name::parse(host)}});
      priming.additional.push_back(
          {*dns::Name::parse(host), dns::RRType::A, dns::RRClass::IN, 518400,
           dns::AData{util::IpAddress::v4(198, 41, 0, static_cast<uint8_t>(c))}});
    }
    write_seed(root / "message_decode", "priming-response.bin",
               priming.encode());
  }

  // name_decode: [u16 offset][buffer], deep-but-legal pointer chains plus one
  // over-budget chain (a valid *rejection* seed).
  for (size_t hops : {1u, 8u, 40u, 63u, 70u}) {
    auto chain = fuzz::pointer_chain_name(rng, hops);
    std::vector<uint8_t> input;
    input.push_back(static_cast<uint8_t>(chain.final_name_offset >> 8));
    input.push_back(static_cast<uint8_t>(chain.final_name_offset));
    input.insert(input.end(), chain.bytes.begin(), chain.bytes.end());
    write_seed(root / "name_decode", "chain-" + std::to_string(hops) + ".bin",
               input);
  }

  // rdata_decode: one seed per modeled RDATA type, [u16 type][rdata bytes].
  {
    size_t written = 0;
    util::Rng rdata_rng(11);
    // Draw until every distinct wire type has one seed file.
    std::vector<uint16_t> seen;
    for (int attempt = 0; attempt < 4000 && written < 13; ++attempt) {
      auto msg = fuzz::random_response(rdata_rng);
      for (const auto& rr : msg.answers) {
        uint16_t code = static_cast<uint16_t>(rr.type);
        if (std::find(seen.begin(), seen.end(), code) != seen.end()) continue;
        seen.push_back(code);
        auto rdata = dns::encode_rdata(rr.rdata, /*canonical=*/false);
        std::vector<uint8_t> input{static_cast<uint8_t>(code >> 8),
                                   static_cast<uint8_t>(code)};
        input.insert(input.end(), rdata.begin(), rdata.end());
        write_seed(root / "rdata_decode",
                   "type-" + std::to_string(code) + ".bin", input);
        ++written;
      }
    }
  }

  // zone_parse: rendered zones plus a handcrafted file covering escapes,
  // quoting, $directives, relative names and both TTL/class orders.
  for (int i = 0; i < 3; ++i)
    write_seed(root / "zone_parse", "zone-" + std::to_string(i) + ".txt",
               to_bytes(fuzz::random_zone(rng, 2 + i).to_master_file()));
  write_seed(root / "zone_parse", "handcrafted.txt", to_bytes(
      "$ORIGIN example.\n"
      "$TTL 3600\n"
      "@ IN SOA ns1 hostmaster 2024010100 1800 900 604800 86400\n"
      "  IN NS ns1\n"
      "ns1 172800 IN A 192.0.2.1\n"
      "ns1 IN 172800 AAAA 2001:db8::1\n"
      "txt IN TXT \"hello world\" \"with \\\"quotes\\\"\" unquoted\n"
      "esc\\046aped IN A 192.0.2.2 ; comment\n"
      "mx IN MX 10 ns1\n"));

  // axfr_stream: single- and multi-message transfers of unsigned zones.
  for (size_t budget : {0u, 300u, 700u}) {
    auto zone = fuzz::random_zone(rng, 4);
    dns::Question question{zone.origin(), dns::RRType::AXFR, dns::RRClass::IN};
    dns::AxfrStreamOptions options;
    if (budget) options.max_message_bytes = budget;
    write_seed(root / "axfr_stream",
               budget ? "multi-" + std::to_string(budget) + ".bin"
                      : "single.bin",
               dns::encode_axfr_stream(zone.axfr_records(), question, options));
  }

  // zone_diff: opaque edit scripts of varied length.
  for (size_t length : {0u, 3u, 16u, 48u}) {
    util::Rng script_rng(length);
    std::vector<uint8_t> script(length);
    for (auto& b : script) b = static_cast<uint8_t>(script_rng.next());
    write_seed(root / "zone_diff", "script-" + std::to_string(length) + ".bin",
               script);
  }

  // validation: the signed fixture transfer intact, with one mid-stream
  // bitflip (a Table-2 "bogus signature" shape), and with its ZONEMD digest
  // region flipped.
  {
    const auto& fixture = fuzz::shared_signed_zone();
    write_seed(root / "validation", "signed-intact.bin", fixture.axfr_stream);
    auto flipped = fixture.axfr_stream;
    flipped[flipped.size() / 2] ^= 0x01;
    write_seed(root / "validation", "signed-bitflip.bin", flipped);
    auto tail_flipped = fixture.axfr_stream;
    tail_flipped[tail_flipped.size() - 20] ^= 0x80;
    write_seed(root / "validation", "signed-tailflip.bin", tail_flipped);
  }

  // denial: a genuine NXDOMAIN proof (NSEC + RRSIGs from the signed zone), a
  // proof with the signature stripped, and a bare NXDOMAIN.
  {
    const auto& fixture = fuzz::shared_signed_zone();
    dns::Message response;
    response.id = 0x4444;
    response.qr = true;
    response.aa = true;
    response.rcode = dns::Rcode::NxDomain;
    response.questions.push_back({*dns::Name::parse("nonexistent-tld."),
                                  dns::RRType::A, dns::RRClass::IN});
    dns::Message bare = response;
    for (const dns::RRset* set : fixture.zone.rrsets()) {
      if (set->type != dns::RRType::NSEC) continue;
      for (const auto& rr : set->to_records()) response.authority.push_back(rr);
      if (const dns::RRset* sigs =
              fixture.zone.find(set->name, dns::RRType::RRSIG))
        for (const auto& rr : sigs->to_records())
          if (const auto* sig = std::get_if<dns::RrsigData>(&rr.rdata);
              sig && sig->type_covered == dns::RRType::NSEC)
            response.authority.push_back(rr);
    }
    write_seed(root / "denial", "nxdomain-proven.bin", response.encode());
    dns::Message stripped = response;
    std::erase_if(stripped.authority, [](const dns::ResourceRecord& rr) {
      return rr.type == dns::RRType::RRSIG;
    });
    write_seed(root / "denial", "nxdomain-unsigned.bin", stripped.encode());
    write_seed(root / "denial", "nxdomain-bare.bin", bare.encode());
  }

  // scenario_parse: the library's specs as --dump writes them (the same
  // bytes as examples/scenarios/*.scn); each rejected line of
  // ScenarioParser.RejectsBadNumbersWithLineNumber and three of
  // RejectsMalformedTime, edited into a small spec that has every directive
  // (ddos-c-globals plus one deployment, one fault and the czds window of
  // the others) the way the test edits the library; and a fraction past
  // "%g"'s six significant digits, which must survive the round trip.
  {
    const fs::path dir = root / "scenario_parse";
    for (const auto& spec : scenario::library())
      write_seed(dir, spec.name + ".scn",
                 to_bytes(scenario::serialize_scenario(spec)));
    scenario::ScenarioSpec every_directive = scenario::ddos_c_globals();
    const scenario::ScenarioSpec paper = scenario::paper_2023();
    every_directive.deployments.push_back(
        scenario::anycast_catchment().deployments.front());
    every_directive.faults.push_back(paper.faults.front());
    every_directive.zone.czds_broken_zonemd = paper.zone.czds_broken_zonemd;
    const std::string base = scenario::serialize_scenario(every_directive);
    const struct {
      const char* directive;
      const char* key;  // the field to replace, or "" for the whole line
      const char* bad;
    } rejected[] = {
        {"seed", "", "seed 42x"},
        {"seed", "", "seed -1"},
        {"seed", "", "seed 0x2a"},
        {"seed", "", "seed 18446744073709551616"},
        {"intervals", "", "intervals 3600s 1h"},
        {"intervals", "", "intervals 1800 1.5"},
        {"intervals", "", "intervals 1e3 900"},
        {"deployment", "", "deployment c global 0,0,0,-1,0,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,,1,0,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,1,0,0 local 0,0,0,0,0,"},
        {"deployment", "", "deployment c global 0,0,0,1,0,0, local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,1,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,1,0,0,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,1x,0,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,0,0,0 local 0,0,0,0,0,0"},
        {"deployment", "", "deployment c global 0,0,0,0,0,0 local 1,0,0,0,0,0"},
        {"event", "fraction", "fraction=7"},
        {"event", "fraction", "fraction=-0.1"},
        {"event", "fraction", "fraction=abc"},
        {"event", "fraction", "fraction=nan"},
        {"event", "fraction", "fraction="},
        {"event", "loss", "loss=2.5"},
        {"event", "loss", "loss=0.3x"},
        {"event", "extra-rtt", "extra-rtt=-5"},
        {"event", "extra-rtt", "extra-rtt=inf"},
        {"event", "jitter", "jitter=1e999"},
        {"event", "jitter", "jitter=ten"},
        {"event", "stages", "stages=-3"},
        {"event", "stages", "stages=0"},
        {"event", "stages", "stages=8x"},
        {"event", "stages", "stages=1.5"},
        {"event", "stages", "stages=99999999999"},
        {"fault", "vp", "vp=abc"},
        {"fault", "vp", "vp=-1"},
        {"fault", "vp", "vp=4294967296"},
        {"fault", "vp", "vp="},
        {"fault", "offset", "offset=3d"},
        {"fault", "offset", "offset=1.5"},
        {"fault", "offset", "offset="},
        {"fault", "table2", "table2=one"},
        {"fault", "table2", "table2=-1"},
        {"fault", "table2", "table2=1.5"},
        {"fault", "old-b", "old-b=2"},
        {"fault", "old-b", "old-b=yes"},
        {"fault", "old-b", "old-b="},
        {"horizon", "", "horizon 2023-12-24T00:00:00Z 2023-07-03T00:00:00Z"},
        {"horizon", "", "horizon 2023-07-03T00:00:00Z 2023-07-03T00:00:00Z"},
        {"dense-window", "",
         "dense-window 2023-10-02T00:00:00Z 2023-09-08T00:00:00Z"},
        {"dense-window", "",
         "dense-window 2023-06-20T00:00:00Z 2023-07-10T00:00:00Z"},
        {"dense-window", "",
         "dense-window 2031-03-18T00:00:00Z 2031-03-28T00:00:00Z"},
        {"czds-broken", "",
         "czds-broken 2023-12-08T00:00:00Z 2023-09-21T00:00:00Z"},
        {"event", "end", "end=2023-11-27T00:00:00Z"},
        {"event", "start", "start=2023-07-01T00:00:00Z"},
        {"event", "end", "end=2031-03-24T00:00:00Z"},
        {"event", "",
         "event ddos letter=c region=- start=2026-03-24T00:00:00Z "
         "end=2026-03-20T00:00:00Z fraction=0.9 loss=0.3 extra-rtt=120 "
         "jitter=0 stages=8 label=ddos-c-globals"},
        {"event", "",
         "event ddos letter=c region=- start=2031-03-20T00:00:00Z "
         "end=2031-03-24T00:00:00Z fraction=0.9 loss=0.3 extra-rtt=120 "
         "jitter=0 stages=8 label=ddos-c-globals"},
        // ScenarioParser.RejectsMalformedTime's times.
        {"horizon", "", "horizon 2023-02-30T00:00:00Z 2023-12-24T00:00:00Z"},
        {"horizon", "", "horizon 2023-07-03T00:00:00Zjunk 2023-12-24T00:00:00Z"},
        {"horizon", "", "horizon 2023-07-03T99999999:00:00Z 2023-12-24T00:00:00Z"},
    };
    size_t index = 0;
    for (const auto& c : rejected) {
      std::string text = base;
      const size_t at =
          text.find(std::string("\n") + c.directive + " ") + 1;  // line start
      const size_t line_end = text.find('\n', at);
      std::string edited = c.bad;
      if (*c.key) {
        edited = text.substr(at, line_end - at);
        const size_t field_at = edited.find(std::string(" ") + c.key + "=") + 1;
        const size_t field_end =
            std::min(edited.find(' ', field_at), edited.size());
        edited.replace(field_at, field_end - field_at, c.bad);
      }
      text.replace(at, line_end - at, edited);
      char name[32];
      std::snprintf(name, sizeof name, "rejected-%02zu.scn", index++);
      write_seed(dir, name, to_bytes(text));
    }
    scenario::ScenarioSpec precise = scenario::ddos_c_globals();
    precise.events.front().site_fraction = 0.9000001;
    write_seed(dir, "fraction-0.9000001.scn",
               to_bytes(scenario::serialize_scenario(precise)));
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
