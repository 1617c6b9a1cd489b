#include "traffic/querymix.h"

#include "util/strings.h"

namespace rootsim::traffic {

std::string to_string(QueryClass cls) {
  switch (cls) {
    case QueryClass::ValidTld: return "valid-tld";
    case QueryClass::NonexistentTld: return "nonexistent-tld";
    case QueryClass::RepeatedQuery: return "repeated";
    case QueryClass::RootNs: return "priming";
    case QueryClass::Junk: return "junk";
  }
  return "?";
}

namespace {

std::string random_label(util::Rng& rng, size_t min_len, size_t max_len) {
  static const char* alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-";
  size_t len = min_len + rng.uniform(max_len - min_len + 1);
  std::string label;
  for (size_t i = 0; i < len; ++i) label += alphabet[rng.uniform(36)];
  if (label.front() == '-') label.front() = 'x';
  if (label.back() == '-') label.back() = 'x';
  return label;
}

dns::RRType random_qtype(util::Rng& rng) {
  static const dns::RRType kTypes[] = {dns::RRType::A, dns::RRType::AAAA,
                                       dns::RRType::NS, dns::RRType::MX,
                                       dns::RRType::TXT};
  return kTypes[rng.uniform(5)];
}

}  // namespace

std::vector<WorkloadQuery> generate_query_workload(
    const std::vector<std::string>& tlds, const QueryMixConfig& config) {
  // Mix fractions (Gao et al.: >50% nonexistent TLD; Castro et al.: heavy
  // repetition on top). Remainder: valid TLD lookups.
  constexpr double kNonexistentFraction = 0.55;
  constexpr double kRepeatedFraction = 0.18;
  constexpr double kPrimingFraction = 0.02;
  constexpr double kJunkFraction = 0.05;
  util::Rng rng(config.seed);
  std::vector<WorkloadQuery> workload;
  workload.reserve(config.queries);

  // A pool of "broken client" queries that get endlessly repeated.
  std::vector<WorkloadQuery> repeat_pool;
  for (int i = 0; i < 20; ++i) {
    WorkloadQuery q;
    q.cls = QueryClass::RepeatedQuery;
    // Leaked internal names: "wpad.corp.", "router.home." style.
    static const char* kLeaks[] = {"wpad.corp.", "router.home.", "ntp.lan.",
                                   "printer.local.", "db01.internal."};
    q.qname = *dns::Name::parse(kLeaks[i % 5]);
    q.qtype = random_qtype(rng);
    repeat_pool.push_back(q);
  }

  for (size_t i = 0; i < config.queries; ++i) {
    double roll = rng.uniform01();
    WorkloadQuery q;
    if (roll < kNonexistentFraction) {
      q.cls = QueryClass::NonexistentTld;
      // Typos and local-suffix leaks: random labels under a random fake TLD.
      std::string name = random_label(rng, 4, 12) + "." +
                         random_label(rng, 5, 10) + ".";
      auto parsed = dns::Name::parse(name);
      q.qname = parsed ? *parsed : dns::Name();
      q.qtype = random_qtype(rng);
    } else if (roll < kNonexistentFraction + kRepeatedFraction) {
      q = repeat_pool[rng.uniform(repeat_pool.size())];
    } else if (roll < kNonexistentFraction + kRepeatedFraction +
                          kPrimingFraction) {
      q.cls = QueryClass::RootNs;
      q.qname = dns::Name();
      q.qtype = dns::RRType::NS;
    } else if (roll < kNonexistentFraction + kRepeatedFraction +
                          kPrimingFraction + kJunkFraction) {
      q.cls = QueryClass::Junk;
      // Single nonsense labels ("localhost", raw IPs as qnames, etc.).
      auto parsed = dns::Name::parse(random_label(rng, 1, 20) + ".");
      q.qname = parsed ? *parsed : dns::Name();
      q.qtype = static_cast<dns::RRType>(1 + rng.uniform(60));
    } else {
      q.cls = QueryClass::ValidTld;
      const std::string& tld = tlds[rng.uniform(tlds.size())];
      q.qname = *dns::Name::parse(random_label(rng, 3, 10) + "." + tld + ".");
      q.qtype = random_qtype(rng);
    }
    workload.push_back(std::move(q));
  }
  return workload;
}

QueryMixReport replay_workload(const rss::RootServerInstance& instance,
                               const std::vector<WorkloadQuery>& workload,
                               util::UnixTime when) {
  QueryMixReport report;
  for (const auto& item : workload) {
    dns::Message query = dns::make_query(
        static_cast<uint16_t>(report.total & 0xFFFF), item.qname, item.qtype);
    dns::Message response = instance.handle_udp_query(query, when);
    ++report.total;
    size_t cls = static_cast<size_t>(item.cls);
    ++report.per_class_count[cls];
    if (response.rcode == dns::Rcode::NxDomain) {
      ++report.nxdomain;
      ++report.per_class_nxdomain[cls];
    } else if (response.rcode == dns::Rcode::NoError) {
      ++report.noerror;
      if (response.answers.empty() && !response.authority.empty())
        ++report.referrals;
    }
  }
  return report;
}

}  // namespace rootsim::traffic
