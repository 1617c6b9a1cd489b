// Transport flight recorder: the bounded ring itself plus the transport
// integration — every exchange()/axfr() completion lands one record with the
// path coordinates and a cause code, so failed probes can be post-mortemed.
#include "netsim/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "netsim/transport.h"
#include "obs/obs.h"
#include "rss/catalog.h"
#include "rss/server.h"

namespace rootsim::netsim {
namespace {

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  FlightRecorder recorder(2);
  EXPECT_EQ(recorder.capacity(), 2u);
  for (uint32_t i = 0; i < 5; ++i) {
    FlightRecord record;
    record.vp_id = i;
    recorder.record(record);
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 3u);
  auto records = recorder.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].vp_id, 3u);  // oldest surviving
  EXPECT_EQ(records[1].vp_id, 4u);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(FlightRecorder, CauseNames) {
  EXPECT_EQ(to_string(FlightRecord::Cause::Ok), "ok");
  EXPECT_EQ(to_string(FlightRecord::Cause::Timeout), "timeout");
  EXPECT_EQ(to_string(FlightRecord::Cause::TcpRefused), "tcp-refused");
  EXPECT_EQ(to_string(FlightRecord::Cause::Refused), "refused");
}

TEST(FlightRecorder, JsonlCarriesTheCoordinatesAndCause) {
  FlightRecorder recorder(8);
  FlightRecord record;
  record.vp_id = 12;
  record.root_index = 1;
  record.family = util::IpFamily::V4;
  record.round = 9980;
  record.site_id = 33;
  record.cause = FlightRecord::Cause::Timeout;
  record.udp_attempts = 3;
  record.drops = 3;
  record.qname = ".";
  record.qtype = 6;  // SOA
  record.time_ms = 10500.0;
  recorder.record(record);
  std::string jsonl = recorder.to_jsonl();
  for (const char* field :
       {"\"op\":\"query\"", "\"cause\":\"timeout\"", "\"vp\":12", "\"root\":1",
        "\"family\":\"v4\"", "\"round\":9980", "\"site\":33", "\"qname\":\".\"",
        "\"qtype\":\"SOA\"", "\"udp_attempts\":3", "\"drops\":3"})
    EXPECT_NE(jsonl.find(field), std::string::npos) << field << "\n" << jsonl;
  EXPECT_EQ(jsonl.back(), '\n');
}

// --- concurrent writers ----------------------------------------------------

std::string summary_text(const FlightFailureSummary& summary) {
  std::string out;
  for (const auto& e : summary.entries)
    out += std::to_string(e.root_index) + (e.v6 ? "/v6/" : "/v4/") +
           std::string(to_string(e.cause)) + " n=" + std::to_string(e.count) +
           " " + std::to_string(e.first) + ".." + std::to_string(e.last) +
           "\n";
  return out;
}

// Record i: send time 1000 + i, unique per record; roots -1..13 (the first
// and last fall outside the rollup), both families and every cause.
FlightRecord numbered_record(uint32_t i) {
  FlightRecord record;
  record.vp_id = i;
  record.root_index = static_cast<int>(i % 15) - 1;
  record.family = i % 2 ? util::IpFamily::V6 : util::IpFamily::V4;
  record.cause = static_cast<FlightRecord::Cause>(i % 4);
  record.when = 1000 + i;
  return record;
}

// Parallel loops share one recorder. Four threads write it at once, each a
// quarter of the records, so the ring wraps while they race; the counts and
// the failure rollup must still equal a serial recorder's. Which records the
// ring keeps, and in what order, is the schedule's business: only their
// number is checked.
TEST(FlightRecorder, ConcurrentWritersMatchASerialRecorder) {
  constexpr size_t kCapacity = 64;
  constexpr uint32_t kRecords = 420;
  constexpr uint32_t kThreads = 4;
  FlightRecorder serial(kCapacity);
  for (uint32_t i = 0; i < kRecords; ++i) serial.record(numbered_record(i));

  FlightRecorder recorder(kCapacity);
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (uint32_t i = t; i < kRecords; i += kThreads)
        recorder.record(numbered_record(i));
    });
  for (auto& writer : writers) writer.join();

  EXPECT_EQ(recorder.recorded(), kRecords);
  EXPECT_EQ(recorder.recorded(), serial.recorded());
  EXPECT_EQ(recorder.size(), kCapacity);
  EXPECT_EQ(recorder.dropped(), serial.dropped());
  EXPECT_EQ(recorder.records().size(), kCapacity);
  const std::string summary = summary_text(serial.failure_summary());
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(summary_text(recorder.failure_summary()), summary);

  // clear() empties the ring but keeps what it counted.
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), kRecords);
  EXPECT_EQ(summary_text(recorder.failure_summary()), summary);
  recorder.record(numbered_record(7));
  EXPECT_EQ(recorder.recorded(), kRecords + 1);
  EXPECT_EQ(recorder.size(), 1u);
}

// --- transport integration -------------------------------------------------

struct Fixture {
  rss::RootCatalog catalog;
  Topology topology;
  RouterConfig router_config;
  std::unique_ptr<AnycastRouter> router;

  Fixture() {
    topology = build_topology(TopologyConfig{}, catalog.all_deployment_specs(),
                              rss::paper_detour_rules());
    router_config.churn = default_churn_specs();
    router_config.campaign_rounds = 10000;
    router = std::make_unique<AnycastRouter>(topology, router_config);
  }

  VantageView vp() const {
    VantageView view;
    view.vp_id = 7;
    view.region = util::Region::Europe;
    view.location = {50.1, 8.7};
    view.asn = 64507;
    view.churn_multiplier = 1.0;
    return view;
  }
};

struct FakeEndpoint final : Transport::Endpoint {
  size_t txt_strings = 1;
  std::vector<uint8_t> axfr;

  dns::Message answer(const dns::Message& query) const {
    dns::Message response;
    response.id = query.id;
    response.qr = true;
    response.aa = true;
    response.questions = query.questions;
    dns::ResourceRecord rr;
    rr.name = query.questions.front().qname;
    rr.type = dns::RRType::TXT;
    rr.rclass = dns::RRClass::IN;
    rr.ttl = 60;
    dns::TxtData txt;
    for (size_t i = 0; i < txt_strings; ++i)
      txt.strings.push_back(std::string(200, 'x'));
    rr.rdata = std::move(txt);
    response.answers.push_back(std::move(rr));
    return response;
  }

  dns::Message udp_response(const dns::Message& query, util::UnixTime,
                            size_t path_mtu_clamp) const override {
    return rss::apply_udp_truncation(answer(query), query, path_mtu_clamp);
  }
  dns::Message tcp_response(const dns::Message& query,
                            util::UnixTime) const override {
    return answer(query);
  }
  std::span<const uint8_t> axfr_stream(util::UnixTime) const override {
    return axfr;
  }
};

dns::Message small_query(uint16_t id = 1) {
  return dns::make_query(id, *dns::Name::parse("example."), dns::RRType::TXT);
}

TEST(FlightRecorder, CleanExchangeRecordsOkWithPathCoordinates) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  Transport::Path path = transport.open_path(f.vp(), 4, util::IpFamily::V6, 11);
  ASSERT_TRUE(transport.exchange(path, endpoint, small_query(), 1000).delivered);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& record = records[0];
  EXPECT_EQ(record.op, FlightRecord::Op::Query);
  EXPECT_EQ(record.cause, FlightRecord::Cause::Ok);
  EXPECT_EQ(record.vp_id, 7u);
  EXPECT_EQ(record.root_index, 4);
  EXPECT_EQ(record.family, util::IpFamily::V6);
  EXPECT_EQ(record.round, 11u);
  EXPECT_EQ(record.site_id, path.site_id());
  EXPECT_EQ(record.qname, "example.");
  EXPECT_EQ(record.qtype, static_cast<uint16_t>(dns::RRType::TXT));
  EXPECT_EQ(record.when, 1000);
  EXPECT_EQ(record.udp_attempts, 1u);
  EXPECT_EQ(record.drops, 0u);
  EXPECT_FALSE(record.truncated_retry);
  EXPECT_GT(record.bytes_sent, 0u);
  EXPECT_GT(record.bytes_received, 0u);
  EXPECT_GT(record.time_ms, 0.0);
}

TEST(FlightRecorder, TimeoutExchangeRecordsTheRetryTrail) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  config.defaults.loss = 1.0;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  Transport::Path path = transport.open_path(f.vp(), 0, util::IpFamily::V4, 0);
  EXPECT_FALSE(transport.exchange(path, endpoint, small_query(), 0).delivered);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::Timeout);
  EXPECT_EQ(records[0].udp_attempts, 3u);
  EXPECT_EQ(records[0].drops, 3u);
  EXPECT_EQ(records[0].bytes_received, 0u);
}

TEST(FlightRecorder, TcpRefusedTruncationRecordsBothFacts) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  config.defaults.tcp_refused = true;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  endpoint.txt_strings = 8;  // forces TC=1 at the default 1232 buffer
  dns::Message query = small_query();
  query.add_edns(1232, false);
  Transport::Path path = transport.open_path(f.vp(), 0, util::IpFamily::V4, 1);
  transport.exchange(path, endpoint, query, 0);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::TcpRefused);
  EXPECT_TRUE(records[0].truncated_retry);
}

TEST(FlightRecorder, AxfrOutcomesMapToCauses) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  Transport transport(*f.router, config);

  FakeEndpoint refusing;  // empty stream = server-side refusal
  Transport::Path path = transport.open_path(f.vp(), 8, util::IpFamily::V4, 0);
  EXPECT_FALSE(transport.axfr(path, refusing, 0).delivered);

  FakeEndpoint serving;
  serving.axfr.assign(4096, 0xAB);
  EXPECT_TRUE(transport.axfr(path, serving, 0).delivered);

  auto records = flight.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].op, FlightRecord::Op::Axfr);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::Refused);
  EXPECT_TRUE(records[0].qname.empty());
  EXPECT_EQ(records[1].cause, FlightRecord::Cause::Ok);
  EXPECT_EQ(records[1].bytes_received, serving.axfr.size());

  FlightRecorder no_tcp_flight(16);
  TransportConfig no_tcp;
  no_tcp.flight_recorder = &no_tcp_flight;
  no_tcp.defaults.tcp_refused = true;
  Transport refused_transport(*f.router, no_tcp);
  path = refused_transport.open_path(f.vp(), 8, util::IpFamily::V4, 0);
  EXPECT_FALSE(refused_transport.axfr(path, serving, 0).delivered);
  ASSERT_EQ(no_tcp_flight.records().size(), 1u);
  EXPECT_EQ(no_tcp_flight.records()[0].cause, FlightRecord::Cause::TcpRefused);
}

// The recorder is a diagnostic surface: attaching it must not change any
// deterministic output (the exchange outcomes and obs exports).
TEST(FlightRecorder, AttachingTheRecorderDoesNotPerturbOutcomes) {
  Fixture f;
  TransportConfig plain_config;
  plain_config.defaults.loss = 0.35;
  obs::Recorder plain_obs;
  Transport plain(*f.router, plain_config, plain_obs.obs());

  FlightRecorder flight(16);
  TransportConfig recorded_config = plain_config;
  recorded_config.flight_recorder = &flight;
  obs::Recorder recorded_obs;
  Transport recorded(*f.router, recorded_config, recorded_obs.obs());

  FakeEndpoint endpoint;
  for (uint64_t round = 0; round < 12; ++round) {
    Transport::Path a = plain.open_path(f.vp(), 2, util::IpFamily::V4, round);
    Transport::Path b = recorded.open_path(f.vp(), 2, util::IpFamily::V4, round);
    ExchangeOutcome oa = plain.exchange(a, endpoint, small_query(), 0);
    ExchangeOutcome ob = recorded.exchange(b, endpoint, small_query(), 0);
    EXPECT_EQ(oa.delivered, ob.delivered) << round;
    EXPECT_EQ(oa.stats.udp_attempts, ob.stats.udp_attempts) << round;
    EXPECT_DOUBLE_EQ(oa.stats.time_ms, ob.stats.time_ms) << round;
  }
  EXPECT_EQ(plain_obs.metrics().to_jsonl(), recorded_obs.metrics().to_jsonl());
  EXPECT_EQ(flight.recorded(), 12u);
}

}  // namespace
}  // namespace rootsim::netsim
