// zone_integrity_audit: transfer the root zone from all 13 deployments (the
// paper's RQ3 workflow), fully validate each copy (RRSIGs + ZONEMD), then
// demonstrate what each fault class looks like to a consumer — a bitflip, a
// stale server, and a skewed local clock — and how ZONEMD flags them.
#include <cstdio>

#include "dnssec/validator.h"
#include "measure/campaign.h"
#include "scenario/apply.h"
#include "obs/obs.h"

using namespace rootsim;

static void report(const char* label, const dnssec::ZoneValidationResult& result) {
  std::printf("%-34s dnssec=%-18s zonemd=%s\n", label,
              to_string(result.dominant_failure()).c_str(),
              to_string(result.zonemd).c_str());
  for (const auto& finding : result.signature_failures) {
    std::printf("    !! %s: RRSIG(%s) over %s\n", to_string(finding.status).c_str(),
                dns::rrtype_to_string(finding.type_covered).c_str(),
                finding.owner.to_string().c_str());
    break;  // one sample per failure is enough for the demo
  }
}

int main() {
  measure::CampaignConfig config = scenario::paper_campaign_config();
  config.zone.tld_count = 60;
  // Record per-instance RSSAC002 telemetry for every exchange the audit
  // makes; dumped as rssac002.jsonl at the end.
  obs::Recorder recorder;
  measure::Campaign campaign(config, recorder.obs());
  const measure::VantagePoint& vp = campaign.vantage_points()[0];
  dnssec::TrustAnchors anchors = campaign.authority().trust_anchors();
  // Nine days before the campaign closes, mid-morning.
  util::UnixTime now = config.schedule.end - 9 * util::kSecondsPerDay + 9 * 3600;
  uint64_t round = campaign.schedule().round_at(now);

  std::printf("== AXFR from all 13 roots, full validation ==\n");
  for (size_t root = 0; root < rss::kRootCount; ++root) {
    const auto& server = campaign.catalog().server(root);
    measure::ProbeRecord probe =
        campaign.prober().probe(vp, server.ipv6, now, round);
    auto zone = dns::Zone::from_axfr(probe.axfr->records, dns::Name());
    if (!zone) {
      std::printf("%s: framing broken\n", server.name.c_str());
      continue;
    }
    auto result = dnssec::validate_zone(*zone, anchors, vp.local_clock(now));
    std::printf("%-22s serial=%u  %s, %s\n", server.name.c_str(), zone->serial(),
                result.fully_valid() ? "valid" : "INVALID",
                to_string(result.zonemd).c_str());
  }

  std::printf("\n== what the Table 2 fault classes look like ==\n");
  const auto& d = campaign.catalog().server(3);

  // 1. Bitflip in transit / in VP memory.
  measure::Prober::FaultKnobs flip;
  flip.inject_bitflip = true;
  flip.bitflip_seed = 11;
  auto corrupted = campaign.prober().probe(vp, d.ipv6, now, round, flip);
  if (auto zone = dns::Zone::from_axfr(corrupted.axfr->records, dns::Name()))
    report("bitflipped transfer:", dnssec::validate_zone(*zone, anchors, now));
  else
    std::printf("bitflipped transfer: broke AXFR framing (also detected)\n");
  std::printf("    (%s)\n", corrupted.axfr->bitflip_note.c_str());

  // 2. Stale server (frozen zone copy, like d.root Tokyo/Leeds).
  measure::Prober::FaultKnobs stale;
  stale.server_frozen_at = now - 25 * util::kSecondsPerDay - 9 * 3600;
  auto stale_probe = campaign.prober().probe(vp, d.ipv4, now, round, stale);
  if (auto zone = dns::Zone::from_axfr(stale_probe.axfr->records, dns::Name()))
    report("stale server (frozen 11-20):",
           dnssec::validate_zone(*zone, anchors, now));

  // 3. Skewed VP clock (validation happens at the VP's local time).
  measure::VantagePoint slow_vp = vp;
  slow_vp.clock_offset_s = -10 * util::kSecondsPerDay;
  auto skewed = campaign.prober().probe(slow_vp, d.ipv4, now, round);
  if (auto zone = dns::Zone::from_axfr(skewed.axfr->records, dns::Name()))
    report("VP clock 10 days slow:",
           dnssec::validate_zone(*zone, anchors, slow_vp.local_clock(now)));

  // 4. Corrupted glue: invisible to DNSSEC, caught only by ZONEMD.
  {
    auto probe = campaign.prober().probe(vp, d.ipv4, now, round);
    auto records = probe.axfr->records;
    for (auto& rr : records) {
      if (rr.type != dns::RRType::A || rr.name.label_count() != 2) continue;
      auto& a = std::get<dns::AData>(rr.rdata);
      auto bytes = a.address.bytes();
      a.address = util::IpAddress::v4(bytes[0], bytes[1], bytes[2],
                                      static_cast<uint8_t>(bytes[3] ^ 1));
      break;
    }
    if (auto zone = dns::Zone::from_axfr(records, dns::Name()))
      report("glue A corrupted (unsigned!):",
             dnssec::validate_zone(*zone, anchors, now));
  }
  std::printf("\nZONEMD catches all four — including the glue case DNSSEC\n"
              "cannot see. That is the paper's §7 argument in running code.\n");

  if (recorder.rssac002().write_jsonl("rssac002.jsonl", config.scenario_name))
    std::printf("\nwrote rssac002.jsonl (%zu instance-day records) — render "
                "with tools/obs_report.py\n",
                recorder.rssac002().record_count());
  return 0;
}
