// Root zone distribution channels beyond AXFR (paper §7).
//
// The paper validates zone copies from three sources and finds them to
// behave differently during the ZONEMD roll-out:
//   * ICANN CZDS — daily zone files; files from 2023-09-21 to 2023-12-07
//     carried ZONEMD records that did NOT validate, later files do;
//   * IANA website — downloads every 15 minutes; first ZONEMD record on
//     2023-09-21T13:30Z, validating from 2023-12-06T20:30Z;
//   * AXFR from the servers themselves (see rss::RootServerInstance).
//
// The CZDS oddity is modelled explicitly: the channel re-exports the zone
// through a pipeline that re-orders/reformats records, and during the
// transition window it published files whose ZONEMD digest was computed
// before the final edit — so the digest mismatches even though DNSSEC
// validates. That is precisely what a consumer observed.
#pragma once

#include <string>

#include "rss/zone_authority.h"

namespace rootsim::rss {

enum class DistributionSource { Czds, IanaWebsite };

std::string to_string(DistributionSource source);

/// One published zone file from a channel.
struct PublishedZoneFile {
  DistributionSource source = DistributionSource::Czds;
  util::UnixTime published_at = 0;
  uint32_t serial = 0;
  /// Master-file content, exactly as a downloader would store it.
  std::string master_file;
};

struct DistributionConfig {
  /// The CZDS transition window in which published ZONEMD digests do not
  /// validate (scenario data; the paper's window — files 2023-09-21 ..
  /// 2023-12-07 — is the `paper-2023` spec's). 0/0 = no broken window.
  util::UnixTime czds_broken_zonemd_start = 0;
  util::UnixTime czds_broken_zonemd_end = 0;
};

/// Produces the zone files a channel would publish.
class DistributionChannel {
 public:
  DistributionChannel(const ZoneAuthority& authority, DistributionSource source,
                      DistributionConfig config = {});

  /// The file available for download at time `t`.
  PublishedZoneFile fetch(util::UnixTime t) const;

  /// All files published in [start, end) at the channel's cadence.
  std::vector<PublishedZoneFile> fetch_window(util::UnixTime start,
                                              util::UnixTime end,
                                              size_t max_files = 100000) const;

  DistributionSource source() const { return source_; }

 private:
  const ZoneAuthority* authority_;
  DistributionSource source_;
  DistributionConfig config_;
};

}  // namespace rootsim::rss
