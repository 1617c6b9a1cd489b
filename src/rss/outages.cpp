#include "rss/outages.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "util/rng.h"

namespace rootsim::rss {

std::vector<OutageWindow> site_outages(uint32_t site_id, util::UnixTime start,
                                       util::UnixTime end,
                                       const OutageModelConfig& config) {
  // Log-normal outage duration parameters (median ~20 minutes).
  constexpr double kDurationMu = 7.1;  // exp(7.1) ~ 1200 s
  constexpr double kDurationSigma = 1.0;
  util::Rng rng(config.seed ^
                (static_cast<uint64_t>(site_id) * 0xbf58476d1ce4e5b9ULL));
  std::vector<OutageWindow> windows;
  if (end <= start) return windows;
  uint64_t count = rng.poisson(config.outages_per_site);
  int64_t span = end - start;
  for (uint64_t i = 0; i < count; ++i) {
    OutageWindow window;
    window.start = start + static_cast<int64_t>(
                               rng.uniform(static_cast<uint64_t>(span)));
    int64_t duration = static_cast<int64_t>(
        std::min(rng.lognormal(kDurationMu, kDurationSigma),
                 6.0 * 3600));
    window.end = std::min(end, window.start + duration);
    windows.push_back(window);
  }
  std::sort(windows.begin(), windows.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.start < b.start;
            });
  return windows;
}

namespace {

bool outside(std::span<const OutageWindow> windows, util::UnixTime t) {
  return std::none_of(windows.begin(), windows.end(),
                      [t](const OutageWindow& window) {
                        return t >= window.start && t < window.end;
                      });
}

// (site_id, label) -> [0, 1): which sites an event darkens must be a pure
// hash, not an RNG draw, so the subset is identical no matter who asks.
double site_event_fraction(uint32_t site_id, const std::string& label) {
  uint64_t state = 0x5eed5105u ^ site_id;
  for (char c : label) {
    state ^= static_cast<uint8_t>(c);
    util::splitmix64(state);
  }
  uint64_t mixed = state;
  return static_cast<double>(util::splitmix64(mixed) >> 11) * 0x1.0p-53;
}

}  // namespace

bool site_available(uint32_t site_id, util::UnixTime t, util::UnixTime start,
                    util::UnixTime end, const OutageModelConfig& config) {
  return outside(site_outages(site_id, start, end, config), t);
}

bool scripted_site_dark(uint32_t site_id, int root_index, util::UnixTime t,
                        const std::vector<ScriptedOutage>& outages,
                        int site_region, int site_type) {
  for (const ScriptedOutage& outage : outages) {
    if (outage.root_index >= 0 && outage.root_index != root_index) continue;
    if (t < outage.start || t >= outage.end) continue;
    if (outage.region >= 0 && outage.region != site_region) continue;
    if (outage.site_type >= 0 && outage.site_type != site_type) continue;
    if (site_event_fraction(site_id, outage.label) < outage.site_fraction)
      return true;
  }
  return false;
}

bool site_available_at(uint32_t site_id, int root_index, util::UnixTime t,
                       util::UnixTime start, util::UnixTime end,
                       const OutageModelConfig& config,
                       const std::vector<ScriptedOutage>& scripted,
                       int site_region, int site_type) {
  if (scripted_site_dark(site_id, root_index, t, scripted, site_region,
                         site_type))
    return false;
  return site_available(site_id, t, start, end, config);
}

OutageTable::OutageTable(size_t sites, util::UnixTime start,
                         util::UnixTime end, const OutageModelConfig& config) {
  first_.reserve(sites + 1);
  for (size_t site = 0; site < sites; ++site) {
    first_.push_back(windows_.size());
    for (const OutageWindow& window :
         site_outages(static_cast<uint32_t>(site), start, end, config))
      windows_.push_back(window);
  }
  first_.push_back(windows_.size());
}

bool OutageTable::available_at(uint32_t site_id, int root_index,
                               util::UnixTime t,
                               const std::vector<ScriptedOutage>& scripted,
                               int site_region, int site_type) const {
  if (scripted_site_dark(site_id, root_index, t, scripted, site_region,
                         site_type))
    return false;
  assert(site_id + size_t{1} < first_.size());
  return outside(std::span(windows_).subspan(
                     first_[site_id], first_[site_id + 1] - first_[site_id]),
                 t);
}

}  // namespace rootsim::rss
