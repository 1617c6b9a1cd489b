#include "rss/distribution.h"

namespace rootsim::rss {

namespace {

/// CZDS exports once per day at 03:00 UTC.
constexpr int kCzdsExportHour = 3;
/// IANA website refresh interval (the paper downloaded every 15 minutes).
constexpr int64_t kIanaIntervalS = 15 * 60;

}  // namespace

std::string to_string(DistributionSource source) {
  switch (source) {
    case DistributionSource::Czds: return "ICANN CZDS";
    case DistributionSource::IanaWebsite: return "IANA website";
  }
  return "?";
}

DistributionChannel::DistributionChannel(const ZoneAuthority& authority,
                                         DistributionSource source,
                                         DistributionConfig config)
    : authority_(&authority), source_(source), config_(config) {}

PublishedZoneFile DistributionChannel::fetch(util::UnixTime t) const {
  PublishedZoneFile file;
  file.source = source_;
  util::UnixTime snapshot = t;
  if (source_ == DistributionSource::Czds) {
    // Last daily export at or before t.
    util::UnixTime today_export =
        util::day_start(t) + kCzdsExportHour * 3600;
    snapshot = t >= today_export ? today_export
                                 : today_export - util::kSecondsPerDay;
    file.published_at = snapshot;
  } else {
    // IANA: last 15-minute refresh boundary.
    file.published_at = t - (t % kIanaIntervalS);
    snapshot = file.published_at;
  }
  const dns::Zone& zone = authority_->zone_at(snapshot);
  file.serial = zone.serial();

  // Note on the paper's CZDS window (2023-09-21 .. 2023-12-07, "ZONEMD
  // records but do not validate"): with the roll-out staged as in Fig. 2 the
  // window needs no special corruption — those files carry the private-use
  // hash algorithm (not verifiable by any consumer), and the one-day export
  // lag explains validation starting 12-07 rather than 12-06. The config's
  // window bounds are retained for reporting.
  file.master_file = zone.to_master_file();
  return file;
}

std::vector<PublishedZoneFile> DistributionChannel::fetch_window(
    util::UnixTime start, util::UnixTime end, size_t max_files) const {
  std::vector<PublishedZoneFile> files;
  int64_t step = source_ == DistributionSource::Czds ? util::kSecondsPerDay
                                                     : kIanaIntervalS;
  uint32_t last_serial = 0;
  bool first = true;
  for (util::UnixTime t = start; t < end && files.size() < max_files; t += step) {
    PublishedZoneFile file = fetch(t);
    // Skip duplicate snapshots (the IANA cadence outpaces zone edits).
    if (!first && file.serial == last_serial &&
        source_ == DistributionSource::Czds)
      continue;
    first = false;
    last_serial = file.serial;
    files.push_back(std::move(file));
  }
  return files;
}

}  // namespace rootsim::rss
