// rootdig: a dig-like command-line client for the simulated root system.
//
//   rootdig [@server] [qname] [qtype] [+options]
//
//   @server   a root service address (default 193.0.14.129 = k.root)
//   qname     query name (default ".")
//   qtype     A AAAA NS SOA TXT DNSKEY DS NSEC ZONEMD or AXFR (default NS)
//   +dnssec   set the DO bit (attach RRSIGs)
//   +norec    clear RD (default for authoritatives anyway)
//   +vp=N     use vantage point N (default 0) — changes anycast catchment
//   +time=YYYY-MM-DD  query at a specific campaign date (default 2023-12-10)
//   +loss=P   drop each packet with probability P in [0, 1] (default 0)
//   +flight   dump the transport flight recorder (always dumped on failure)
//
// A value that is not a whole number, a probability or a calendar date
// exits 1 naming its flag, before the campaign is built.
//
// Examples:
//   rootdig @199.9.14.201 . SOA            # old b.root address
//   rootdig . ZONEMD +dnssec
//   rootdig @2001:7fd::1 hostname.bind TXT # CHAOS identity
//   rootdig . AXFR | head
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "measure/campaign.h"
#include "netsim/flight_recorder.h"
#include "obs/obs.h"
#include "scenario/apply.h"
#include "util/strings.h"

using namespace rootsim;

namespace {

// "YYYY-MM-DD" at noon UTC, if it names a real calendar date: one that
// comes back unchanged from the instant it maps to.
std::optional<util::UnixTime> parse_date(std::string_view text) {
  const std::vector<std::string> fields = util::split(text, '-');
  int year = 0, month = 0, day = 0;
  if (fields.size() != 3 || fields[0].size() != 4 || fields[1].size() != 2 ||
      fields[2].size() != 2 || !util::parse_number(fields[0], &year) ||
      !util::parse_number(fields[1], &month) ||
      !util::parse_number(fields[2], &day))
    return std::nullopt;
  const util::UnixTime when = util::make_time(year, month, day, 12, 0);
  const util::CivilTime civil = util::civil_from_unix(when);
  if (civil.year != year || civil.month != month || civil.day != day)
    return std::nullopt;
  return when;
}

// Scans the probe's trace for query-level failures (timeouts, REFUSED,
// refused transfers) and surfaces them dig-style. Without this, a probe
// whose inner queries all timed out printed empty sections and nothing else.
// Returns the number of failures found so the caller can trigger the flight
// recorder post-mortem.
int print_probe_warnings(const obs::Recorder& recorder) {
  int failures = 0;
  for (const auto& event : recorder.tracer().events()) {
    if (event.kind != obs::TraceEvent::Kind::Event) continue;
    std::string qname, status;
    for (const auto& attr : event.attrs) {
      if (attr.key == "qname") qname = attr.value;
      if (attr.key == "status") status = attr.value;
    }
    if (event.name == "query" && !status.empty() && status != "NOERROR") {
      std::printf(";; WARNING: query for %s failed: %s\n", qname.c_str(),
                  status.c_str());
      ++failures;
    } else if (event.name == "axfr" && status == "refused") {
      std::printf(";; WARNING: zone transfer refused\n");
      ++failures;
    } else if (event.name == "probe.error") {
      std::printf(";; WARNING: probe error\n");
      ++failures;
    }
  }
  return failures;
}

// The post-mortem: what the transport actually did, exchange by exchange
// (attempts, drops, cause codes), from the flight recorder ring.
void print_flight_records(const netsim::FlightRecorder& flight) {
  if (flight.size() == 0) return;
  std::printf(";; FLIGHT RECORDER: last %zu of %llu exchange(s)\n",
              flight.size(),
              static_cast<unsigned long long>(flight.recorded()));
  for (const auto& line : util::split(flight.to_jsonl(), '\n'))
    if (!line.empty()) std::printf(";;   %s\n", line.c_str());
}

// The service-level view next to the packet-level one: what the streaming
// SLO monitor says about the queried letter at the query time — the window
// covering the query (availability, p95 RTT, breaches) and any incident on
// the letter that was open then. One failed rootdig thus shows both "what
// did my packets do" and "was the letter actually in trouble".
void print_slo_state(const measure::Campaign& campaign, int root_index,
                     util::IpFamily family, util::UnixTime when) {
  if (root_index < 0) return;
  measure::SloTimelineOptions options;
  options.probes_per_bucket = 4;  // a coarse pass: state, not an experiment
  options.publication_samples = 2;
  auto slo = campaign.run_slo_timeline(options);
  const bool v6 = family == util::IpFamily::V6;
  const obs::SloWindow* current = nullptr;
  for (const auto& window : slo.windows) {
    if (window.root != root_index || window.v6 != v6) continue;
    if (window.end <= when || (window.start <= when && when < window.end))
      current = &window;  // ends as the window covering `when`
    if (window.start > when) break;
  }
  std::printf(";; SLO STATE: %c.root %s at %s\n",
              static_cast<char>('a' + root_index), v6 ? "v6" : "v4",
              util::format_datetime(when).c_str());
  if (!current) {
    std::printf(";;   no evaluated window covers the query time\n");
    return;
  }
  std::printf(";;   window %s..%s: availability %.4f%% (%llu/%llu probes)%s\n",
              util::format_datetime(current->start).c_str(),
              util::format_datetime(current->end).c_str(),
              100.0 * current->availability,
              static_cast<unsigned long long>(current->answered),
              static_cast<unsigned long long>(current->probes),
              current->evaluated ? "" : " [starved: not evaluated]");
  if (current->latency_count)
    std::printf(";;   rtt p50 %.1f ms, p95 %.1f ms\n", current->rtt_p50_ms,
                current->rtt_p95_ms);
  for (size_t m = 0; m < obs::kSloMetricCount; ++m) {
    const auto metric = static_cast<obs::SloMetric>(m);
    if (current->breached(metric))
      std::printf(";;   BREACH: %.*s\n",
                  static_cast<int>(obs::to_string(metric).size()),
                  obs::to_string(metric).data());
  }
  bool any_incident = false;
  for (const auto& incident : slo.incidents) {
    if (incident.root != root_index) continue;
    const bool active =
        incident.opened <= when && (incident.open() || when < incident.closed);
    if (!active) continue;
    any_incident = true;
    const std::string until =
        incident.open() ? "still open"
                        : "closed " + util::format_datetime(incident.closed);
    std::printf(";;   INCIDENT #%u %s %s: opened %s, %s, cause: %s\n",
                incident.id, incident.v6 ? "v6" : "v4",
                std::string(obs::to_string(incident.metric)).c_str(),
                util::format_datetime(incident.opened).c_str(), until.c_str(),
                incident.cause.c_str());
  }
  if (!any_incident)
    std::printf(";;   no incident open on the letter at query time\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string server = "193.0.14.129";
  std::string qname = ".";
  std::string qtype_text = "NS";
  bool dnssec = false;
  bool show_flight = false;
  size_t vp_index = 0;
  double loss = 0.0;
  util::UnixTime when = util::make_time(2023, 12, 10, 12, 0);

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() > 1 && arg[0] == '@') {
      server = arg.substr(1);
    } else if (arg == "+dnssec") {
      dnssec = true;
    } else if (arg == "+flight") {
      show_flight = true;
    } else if (arg == "+norec") {
      // authoritative queries never recurse; accepted for dig compatibility
    } else if (util::starts_with(arg, "+vp=")) {
      if (!util::parse_number(std::string_view(arg).substr(4), &vp_index)) {
        std::fprintf(stderr,
                     "rootdig: +vp wants a vantage point index, got '%s'\n",
                     arg.c_str() + 4);
        return 1;
      }
    } else if (util::starts_with(arg, "+loss=")) {
      // Written so that NaN fails too.
      if (!util::parse_number(std::string_view(arg).substr(6), &loss) ||
          !(loss >= 0.0 && loss <= 1.0)) {
        std::fprintf(stderr,
                     "rootdig: +loss wants a probability in [0, 1], got "
                     "'%s'\n",
                     arg.c_str() + 6);
        return 1;
      }
    } else if (util::starts_with(arg, "+time=")) {
      const std::optional<util::UnixTime> date =
          parse_date(std::string_view(arg).substr(6));
      if (!date) {
        std::fprintf(stderr,
                     "rootdig: +time wants a calendar date YYYY-MM-DD, got "
                     "'%s'\n",
                     arg.c_str() + 6);
        return 1;
      }
      when = *date;
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: rootdig [@server] [qname] [qtype] [+dnssec] [+vp=N] "
                  "[+time=YYYY-MM-DD] [+flight] [+loss=P]\n");
      return 0;
    } else if (arg[0] == '+') {
      std::fprintf(stderr, "rootdig: unknown option '%s'\n", arg.c_str());
      return 1;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 2) {
    std::fprintf(stderr, "rootdig: unexpected argument '%s'\n",
                 positional[2].c_str());
    return 1;
  }
  if (positional.size() >= 1) qname = positional[0];
  if (positional.size() >= 2) qtype_text = positional[1];
  // rrtype_from_string reads every type it does not know as ANY.
  const dns::RRType qtype = dns::rrtype_from_string(qtype_text);
  if (qtype == dns::RRType::ANY && util::to_lower(qtype_text) != "any") {
    std::fprintf(stderr, "rootdig: unknown qtype '%s'\n", qtype_text.c_str());
    return 1;
  }

  auto address = util::IpAddress::parse(server);
  if (!address) {
    std::fprintf(stderr, "rootdig: bad server address '%s'\n", server.c_str());
    return 1;
  }
  auto parsed_name = dns::Name::parse(qname);
  if (!parsed_name) {
    std::fprintf(stderr, "rootdig: bad qname '%s'\n", qname.c_str());
    return 1;
  }
  measure::CampaignConfig config = scenario::paper_campaign_config();
  config.zone.tld_count = 60;
  // Every transport exchange of the probe lands in this bounded ring; on a
  // failed query the dump below is the post-mortem.
  netsim::FlightRecorder flight(64);
  config.transport.flight_recorder = &flight;
  // +loss=P degrades every path so the failure diagnostics (flight-recorder
  // dump + SLO state of the queried letter) are demonstrable on demand.
  config.transport.defaults.loss = loss;
  obs::Recorder recorder;
  measure::Campaign campaign(config, recorder.obs());
  if (campaign.catalog().index_of_address(*address) < 0) {
    std::fprintf(stderr, "rootdig: '%s' is not a root service address\n",
                 server.c_str());
    return 1;
  }
  if (vp_index >= campaign.vantage_points().size()) {
    std::fprintf(stderr, "rootdig: vp index out of range (max %zu)\n",
                 campaign.vantage_points().size() - 1);
    return 1;
  }
  const auto& vp = campaign.vantage_points()[vp_index];
  uint64_t round = campaign.schedule().round_at(when);

  measure::ProbeRecord probe =
      campaign.prober().probe(vp, *address, when, round);

  if (qtype == dns::RRType::AXFR) {
    if (!probe.axfr || probe.axfr->refused) {
      print_probe_warnings(recorder);
      print_flight_records(flight);
      print_slo_state(campaign, probe.root_index, probe.family, when);
      std::printf("; transfer failed\n");
      return 1;
    }
    for (const auto& rr : probe.axfr->records)
      std::printf("%s\n", dns::record_to_string(rr).c_str());
    std::printf("; transfer size: %zu records, serial %u\n",
                probe.axfr->records.size(), probe.axfr->soa_serial);
    if (show_flight) print_flight_records(flight);
    return 0;
  }

  // Issue the one query directly against the instance this VP reaches.
  const auto& site = campaign.topology().sites[probe.site_id];
  rss::RootServerInstance instance(
      campaign.authority(), campaign.catalog(),
      static_cast<uint32_t>(probe.root_index), site.identity, {},
      recorder.obs());
  bool chaos = util::ends_with(util::to_lower(qname), ".bind.") ||
               util::ends_with(util::to_lower(qname), ".bind") ||
               util::starts_with(util::to_lower(qname), "id.server") ||
               util::starts_with(util::to_lower(qname), "hostname.bind") ||
               util::starts_with(util::to_lower(qname), "version.");
  dns::Message query = dns::make_query(
      static_cast<uint16_t>(when & 0xFFFF), *parsed_name, qtype,
      chaos ? dns::RRClass::CH : dns::RRClass::IN, dnssec);
  dns::Message response = instance.handle_udp_query(query, when);
  bool via_tcp = false;
  if (response.tc) {
    response = instance.handle_query(query, when);
    via_tcp = true;
  }

  std::printf("; <<>> rootsim rootdig <<>> @%s %s %s%s\n", server.c_str(),
              qname.c_str(), qtype_text.c_str(), dnssec ? " +dnssec" : "");
  const int failures = print_probe_warnings(recorder);
  if (show_flight || failures > 0) print_flight_records(flight);
  if (failures > 0)
    print_slo_state(campaign, probe.root_index, probe.family, when);
  std::printf(";; ->>HEADER<<- opcode: QUERY, status: %s, id: %u\n",
              rcode_to_string(response.rcode).c_str(), response.id);
  std::printf(";; flags: qr%s%s; QUERY: %zu, ANSWER: %zu, AUTHORITY: %zu, "
              "ADDITIONAL: %zu\n",
              response.aa ? " aa" : "", response.tc ? " tc" : "",
              response.questions.size(), response.answers.size(),
              response.authority.size(), response.additional.size());
  auto dump = [](const char* section, const std::vector<dns::ResourceRecord>& rrs) {
    if (rrs.empty()) return;
    std::printf("\n;; %s SECTION:\n", section);
    for (const auto& rr : rrs)
      std::printf("%s\n", dns::record_to_string(rr).c_str());
  };
  dump("ANSWER", response.answers);
  dump("AUTHORITY", response.authority);
  std::printf("\n;; Query time: %.0f msec%s\n", probe.rtt_ms,
              via_tcp ? " (retried over TCP)" : "");
  std::printf(";; SERVER: %s (%s, instance %s)\n", server.c_str(),
              probe.family == util::IpFamily::V4 ? "UDP+TCP" : "UDP+TCP",
              site.identity.c_str());
  std::printf(";; WHEN: %s\n", util::format_datetime(when).c_str());
  return 0;
}
