// A recursive resolver's root-priming machinery (RFC 8109).
//
// This is the protocol-level mechanism behind the paper's adoption findings
// (§6): a resolver starts from a compiled-in hints file (possibly years out
// of date), sends a priming query (". NS") to one of the hinted addresses,
// and replaces its working root address list with the response. A resolver
// that primes learns b.root's new address within one cache lifetime; one
// that does not keeps hammering the hints-file address — for 13 years, in
// the j.root case (Wessels et al.).
//
// The model runs against the simulated root server system: real queries,
// real NS/A/AAAA parsing, real TTL-driven re-priming.
#pragma once

#include <optional>
#include <vector>

#include "measure/campaign.h"

namespace rootsim::resolver {

/// One root server entry in the hints file / priming cache.
struct RootHint {
  dns::Name name;
  std::optional<util::IpAddress> ipv4;
  std::optional<util::IpAddress> ipv6;
};

/// The compiled-in hints (RFC 8109 §2: resolvers ship a root hints file).
/// `as_of` controls whether the file predates the b.root renumbering.
std::vector<RootHint> builtin_hints(const rss::RootCatalog& catalog,
                                    util::UnixTime as_of);

struct PrimingConfig {
  /// Does this implementation prime at startup/expiry at all? (RFC 1035-era
  /// software often did not — the paper's "reluctant" clients.)
  bool primes = true;
  util::IpFamily preferred_family = util::IpFamily::V4;
};

/// The resolver-side priming cache.
class PrimingResolver {
 public:
  PrimingResolver(const measure::Campaign& campaign,
                  const measure::VantagePoint& vp,
                  std::vector<RootHint> hints, PrimingConfig config = {});

  /// Ensures the cache is fresh at `now` (sends a priming exchange if due).
  /// Returns true if a priming query was actually sent.
  bool ensure_primed(util::UnixTime now);

  /// The address this resolver would contact for `letter`.root right now.
  /// Falls back to hints when never primed.
  std::optional<util::IpAddress> address_of(char letter,
                                            util::IpFamily family) const;

  /// Where the *next* root query goes (round-robins over known addresses of
  /// the preferred family) — the traffic the passive collectors see.
  std::optional<util::IpAddress> next_target(util::UnixTime now);

  size_t priming_queries_sent() const { return priming_queries_sent_; }
  util::UnixTime last_primed() const { return last_primed_; }
  bool ever_primed() const { return last_primed_ != 0; }

 private:
  const measure::Campaign* campaign_;
  measure::VantagePoint vp_;
  std::vector<RootHint> working_set_;
  PrimingConfig config_;
  util::UnixTime last_primed_ = 0;
  size_t priming_queries_sent_ = 0;
  size_t round_robin_ = 0;
};

}  // namespace rootsim::resolver
