// Campaign::run_slo_timeline — the streaming RSSAC047 monitor's data feed.
//
// One work unit per 6 h bucket of simulated time (the SloCollector's bucket
// width, so a unit writes exactly its own cells). Each unit draws its RNG by
// forking the campaign seed by bucket index — never a shared sequential
// stream — and fills its own slots of the chunk's cell array, which is the
// whole determinism argument: the same cells exist with the same contents
// no matter how many workers ran or who stole what.
//
// Before the units run, the call prepares every VP's catchment per (letter,
// family) into one flat table (a Selection depends only on the VP, the
// letter, the family and the static topology; see DESIGN.md §10), with one
// ranking of the letter's sites per (VP, letter) for both families. Probes
// then only make the round's churn draw on their row, and a dark probe's
// route fallback reads its alternatives from the same row.
//
// What a unit samples, per (letter, family):
//   * availability/latency probes: VP drawn per probe, its catchment picked
//     at the probe's schedule round; the chosen site answers unless the
//     Poisson outage model or a scripted event window has it dark.
//     Answered probes contribute the transport's effective RTT.
//   * zone staleness: the probed site serves the previous serial until its
//     deterministic per-(site, serial) refresh delay elapses; the sample is
//     the served serial's age behind the master.
//   * publication latency: on buckets containing a serial bump (the zone
//     authority publishes 00:00 / 12:00 UTC) the refresh delays of sampled
//     sites are the publication-latency samples.
//   * integrity: one mid-bucket ZONEMD check — verifiable under Sha384,
//     present-but-unverifiable under the private algorithm (the rollout
//     phase the paper watched), absent before either.

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>

#include "exec/engine.h"
#include "measure/campaign.h"
#include "util/geo.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::measure {

namespace {

constexpr int64_t kBucketSeconds = obs::SloCollector::kBucketSeconds;
/// 30 days per region: longer chunks peaked higher, shorter ones no lower.
constexpr size_t kChunkBuckets = 120;
/// (letter, family) streams; stream s is letter s / 2, v6 when s is odd.
constexpr size_t kStreams = obs::kSloRoots * 2;
/// The zone authority publishes a new serial at 00:00 and 12:00 UTC
/// (ZoneAuthority::serial_at's NN digit).
constexpr int64_t kPublishIntervalSeconds = 12 * 3600;
/// The longest a site keeps serving the old zone after a publication.
constexpr int64_t kMaxPublicationDelaySeconds = 30 * 60;
/// A route-fallback slot past the last site the VP reaches.
constexpr uint32_t kNoSite = std::numeric_limits<uint32_t>::max();

util::UnixTime last_publish_at_or_before(util::UnixTime t) {
  return t - (t % kPublishIntervalSeconds);
}

/// Deterministic refresh delay of one site for one publication: how long
/// after the serial bump the site keeps serving the old zone. Lognormal with
/// a ~10 min median, capped at 30 min — under the healthy distribution
/// model the RSSAC047 35-min publication target is met by construction, so
/// a publication incident can only come from a scenario that breaks the
/// distribution pipeline, never from the tail of the background model.
double publication_delay_s(uint64_t seed, uint32_t root, uint32_t site_id,
                           util::UnixTime publish) {
  // The fork key "slo-pub-<root>-<site>-<publish>", built on the stack: the
  // prefix, two numbers of up to 10 digits and one of up to 20 characters.
  char key[64] = "slo-pub-";
  char* p = std::to_chars(key + 8, key + 18, root).ptr;
  *p++ = '-';
  p = std::to_chars(p, p + 10, site_id).ptr;
  *p++ = '-';
  p = std::to_chars(p, p + 20, publish).ptr;
  util::Rng rng = util::Rng(seed).fork(
      std::string_view(key, static_cast<size_t>(p - key)));
  return std::min(rng.lognormal(std::log(600.0), 0.5),
                  static_cast<double>(kMaxPublicationDelaySeconds));
}

}  // namespace

SloTimelineResult Campaign::run_slo_timeline(
    const SloTimelineOptions& options) const {
  const util::UnixTime start = schedule_.config().start;
  const util::UnixTime end = schedule_.config().end;
  const int64_t first_bucket = obs::SloCollector::bucket_index(start);
  const int64_t last_bucket = obs::SloCollector::bucket_index(end - 1);
  const size_t total_units =
      static_cast<size_t>(last_bucket - first_bucket + 1);
  size_t workers =
      std::max<size_t>(1, std::min(exec::resolve_workers(options.workers),
                                   total_units));

  const util::Rng timeline_rng = util::Rng(config_.seed).fork("slo-timeline");
  const netsim::Transport& transport = prober_->transport();

  // The campaign config's scenario events first, then whatever the caller
  // layered on — one merged list drives both probing and attribution, so the
  // monitor can never detect an event attribution wasn't offered.
  std::vector<rss::ScriptedOutage> scripted = config_.scripted_outages;
  scripted.insert(scripted.end(), options.scripted_outages.begin(),
                  options.scripted_outages.end());

  // Every site's Poisson outage windows, drawn once for the call rather than
  // once per probe. Region/type-scoped events need to know what the probed
  // site is.
  const rss::OutageTable outages(topology_.sites.size(), start, end,
                                 options.outages);
  const auto available = [&](uint32_t site_id, uint32_t root,
                             util::UnixTime t) {
    const netsim::AnycastSite& site = topology_.sites[site_id];
    return outages.available_at(site_id, static_cast<int>(root), t, scripted,
                                static_cast<int>(site.region),
                                static_cast<int>(site.type));
  };

  // The catchment table, [vp][letter][family]: each row's selection, and,
  // for the route fallback, the row's `fallback` cheapest sites (kNoSite
  // past the last the VP reaches). One ranking pass per (VP, letter) fills
  // both families' rows. Built per call rather than with the campaign, so
  // callers that never run the monitor do not pay for it at construction.
  const size_t fallback = options.route_fallback_candidates;
  const auto row_of = [](size_t vp, uint32_t root, int fam) {
    return (vp * obs::kSloRoots + root) * 2 + static_cast<size_t>(fam);
  };
  std::vector<netsim::AnycastRouter::Selection> catchments(
      row_of(vps_.size(), 0, 0));
  std::vector<uint32_t> alternatives(catchments.size() * fallback, kNoSite);
  exec::parallel_for(vps_.size(), workers, [&](size_t vp, size_t) {
    const size_t k = std::max<size_t>(2, fallback);
    std::vector<netsim::AnycastRouter::RankedSite> top(2 * k);
    const std::span<netsim::AnycastRouter::RankedSite> v4(top.data(), k);
    const std::span<netsim::AnycastRouter::RankedSite> v6(top.data() + k, k);
    for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
      const size_t row = row_of(vp, root, 0);
      const size_t ranked = router_->prepare_selections(
          vps_[vp].view, root,
          std::span(catchments).subspan(row).first<2>(), {v4, v6});
      for (size_t i = 0; i < std::min(ranked, fallback); ++i) {
        alternatives[row * fallback + i] = v4[i].site_id;
        alternatives[(row + 1) * fallback + i] = v6[i].site_id;
      }
    }
  });

  // One chunk's cells, [stream][bucket - chunk start], kept across chunks
  // so that a unit refills its slots without allocating. The call's samples
  // land only here, never in a Recorder's collector: the call must not read
  // what earlier calls or probes left there.
  const size_t chunk_width = std::min(kChunkBuckets, total_units);
  std::vector<obs::SloCollector::Cell> chunk_cells(kStreams * chunk_width);

  // `slot` is the unit's bucket less its chunk's first.
  const auto run_unit = [&](size_t unit, size_t slot) {
    const int64_t bucket = first_bucket + static_cast<int64_t>(unit);
    const util::UnixTime bucket_begin = obs::SloCollector::bucket_start(bucket);
    util::Rng rng = timeline_rng.fork(
        util::format("bucket-%lld", static_cast<long long>(bucket)));

    for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
      for (int fam = 0; fam < 2; ++fam) {
        const bool v6 = fam == 1;
        const util::IpFamily family =
            v6 ? util::IpFamily::V6 : util::IpFamily::V4;
        // Every sample of this stream lands in the unit's own bucket: its
        // slot, which no other unit writes.
        obs::SloCollector::Cell& cell =
            chunk_cells[(root * 2 + static_cast<size_t>(fam)) * chunk_width +
                        slot];
        cell.clear();
        const auto add_sample = [&](const obs::SloSample& sample) {
          assert(obs::SloCollector::bucket_index(sample.when) == bucket);
          cell.record(sample);
        };

        for (size_t p = 0; p < options.probes_per_bucket; ++p) {
          util::UnixTime t =
              bucket_begin + static_cast<int64_t>(
                                 rng.uniform(static_cast<uint64_t>(
                                     kBucketSeconds)));
          t = std::clamp<util::UnixTime>(t, start, end - 1);
          const size_t vp_index = rng.uniform(vps_.size());
          const VantagePoint& vp = vps_[vp_index];
          const uint64_t round = schedule_.round_at(t);
          const size_t row = row_of(vp_index, root, fam);
          const netsim::RouteResult route =
              router_->pick(catchments[row], family, round);
          uint32_t serving_site = route.site_id;
          bool up = available(serving_site, root, t);
          double rtt_ms = up ? transport.effective_rtt_ms(route,
                                                          static_cast<int>(root),
                                                          t)
                             : 0.0;
          if (!up) {
            // Catchment-view fallback: the VP's BGP table still carries
            // routes to other sites; the first of its cheapest that answers
            // takes the probe, at the RTT its distance implies.
            for (const uint32_t alt : std::span(alternatives)
                                          .subspan(row * fallback, fallback)) {
              if (alt == kNoSite) break;
              if (alt == route.site_id) continue;
              if (!available(alt, root, t)) continue;
              serving_site = alt;
              up = true;
              rtt_ms = util::fiber_rtt_ms(router_->distance_km(vp.view, alt)) +
                       2.0;
              break;
            }
          }

          obs::SloSample sample;
          sample.root = static_cast<uint8_t>(root);
          sample.v6 = v6;
          sample.when = t;
          sample.kind = obs::SloSample::Kind::Availability;
          sample.ok = up;
          add_sample(sample);

          if (up) {
            sample.kind = obs::SloSample::Kind::Latency;
            sample.value = rtt_ms;
            add_sample(sample);

            // Staleness of the serial this site is serving right now. Past
            // the longest delay the site serves the new serial whatever its
            // delay is, so the delay is drawn only inside it.
            const util::UnixTime publish = last_publish_at_or_before(t);
            if (publish >= start) {
              const bool stale =
                  t - publish < kMaxPublicationDelaySeconds &&
                  t < publish + static_cast<int64_t>(publication_delay_s(
                                    config_.seed, root, serving_site, publish));
              sample.kind = obs::SloSample::Kind::Staleness;
              sample.value = stale ? static_cast<double>(t - publish) : 0.0;
              add_sample(sample);
            }
          } else {
            // The monitor's packet-level shadow: a dark site looks like a
            // timeout to the prober, and the flight recorder's failure
            // summary is what lets attribution cross-check transport-level
            // causes against the scripted/event hints.
            netsim::FlightRecord record;
            record.vp_id = vp.view.vp_id;
            record.root_index = static_cast<int>(root);
            record.family = family;
            record.round = round;
            record.site_id = route.site_id;
            record.cause = netsim::FlightRecord::Cause::Timeout;
            record.udp_attempts = 3;
            record.drops = 3;
            record.qname = ".";
            record.qtype = 6;  // SOA
            record.when = t;
            record.time_ms = 10500.0;  // full UDP retry budget
            if (options.flight_recorder)
              options.flight_recorder->record(std::move(record));
          }
        }

        // One mid-bucket integrity check per stream.
        const util::UnixTime check_at = bucket_begin + kBucketSeconds / 2;
        if (check_at >= start && check_at < end) {
          const auto mode = authority_->zonemd_mode_at(check_at);
          if (mode != dnssec::SigningPolicy::ZonemdMode::None) {
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = check_at;
            sample.kind = obs::SloSample::Kind::Integrity;
            sample.ok = mode == dnssec::SigningPolicy::ZonemdMode::Sha384;
            add_sample(sample);
          }
        }

        // Publication events whose bump lands in this bucket.
        for (util::UnixTime publish =
                 bucket_begin +
                 ((kPublishIntervalSeconds -
                   bucket_begin % kPublishIntervalSeconds) %
                  kPublishIntervalSeconds);
             publish < bucket_begin + kBucketSeconds;
             publish += kPublishIntervalSeconds) {
          if (publish < start || publish >= end) continue;
          const uint64_t round = schedule_.round_at(publish);
          for (size_t s = 0; s < options.publication_samples; ++s) {
            const netsim::RouteResult route = router_->pick(
                catchments[row_of(rng.uniform(vps_.size()), root, fam)],
                family, round);
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = publish;
            sample.kind = obs::SloSample::Kind::Publication;
            sample.value =
                publication_delay_s(config_.seed, root, route.site_id,
                                    publish);
            add_sample(sample);
          }
        }
      }
    }
  };

  // The units run in chunks of the horizon, one region each. After a chunk,
  // each stream's run of cells is swept, on the workers, into its windows'
  // final slots; the drain carries the few cells a later window still reads,
  // so the call holds one chunk of cells rather than the horizon's. Chunks
  // run in order, so every stream's runs arrive in time order.
  obs::SloCollector::Drain drained(options.thresholds, first_bucket,
                                   total_units);
  for (size_t begin = 0; begin < total_units; begin += kChunkBuckets) {
    const size_t count = std::min(kChunkBuckets, total_units - begin);
    exec::parallel_for(count, workers, [&](size_t index, size_t) {
      run_unit(begin + index, index);
    });
    exec::parallel_for(kStreams, workers, [&](size_t s, size_t) {
      drained.add(static_cast<uint8_t>(s / 2), s % 2 == 1,
                  first_bucket + static_cast<int64_t>(begin),
                  std::span(chunk_cells).subspan(s * chunk_width, count));
    });
  }

  SloTimelineResult result;
  result.windows = drained.take_windows();

  // Attribution hints, in deterministic construction order (the tracker's
  // scoring is order-independent anyway).
  for (const rss::ScriptedOutage& outage : scripted) {
    obs::CauseHint hint;
    hint.start = outage.start;
    hint.end = outage.end;
    hint.root = outage.root_index;
    hint.label = outage.label;
    hint.weight = 2.0;
    result.hints.push_back(hint);
  }
  // Zone-pipeline events from the authority's config: the ZONEMD rollout
  // phases. Present-but-unverifiable is an integrity story by definition.
  if (config_.zone.zonemd_private_start > 0) {
    obs::CauseHint private_alg;
    private_alg.start = config_.zone.zonemd_private_start;
    // Until the switch to SHA-384, or to the horizon's end without one.
    private_alg.end = config_.zone.zonemd_sha384_start > 0
                          ? config_.zone.zonemd_sha384_start
                          : end;
    private_alg.metric = static_cast<int>(obs::SloMetric::Integrity);
    private_alg.label = "zonemd-private-algorithm";
    private_alg.weight = 2.0;
    result.hints.push_back(private_alg);
  }
  if (config_.zone.zonemd_sha384_start > 0) {
    obs::CauseHint sha384;
    sha384.start = config_.zone.zonemd_sha384_start;
    sha384.end = config_.zone.zonemd_sha384_start + 2 * util::kSecondsPerDay;
    sha384.metric = static_cast<int>(obs::SloMetric::Integrity);
    sha384.label = "zonemd-sha384-rollout";
    sha384.weight = 1.0;
    result.hints.push_back(sha384);
  }
  if (config_.zone.ksk_roll_at > 0) {
    // Validators chase the new key for a while after the roll; any
    // integrity wobble in that window has an obvious first suspect.
    obs::CauseHint roll;
    roll.start = config_.zone.ksk_roll_at;
    roll.end = config_.zone.ksk_roll_at + 2 * util::kSecondsPerDay;
    roll.metric = static_cast<int>(obs::SloMetric::Integrity);
    roll.label = "ksk-rollover";
    roll.weight = 1.0;
    result.hints.push_back(roll);
  }
  for (const obs::CauseHint& hint : config_.extra_hints)
    result.hints.push_back(hint);
  if (options.flight_recorder) {
    // Transport-level corroboration, at low weight: when nothing scripted
    // explains a breach, the failure summary at least names the cause class.
    for (const auto& entry : options.flight_recorder->failure_summary().entries) {
      obs::CauseHint hint;
      hint.start = entry.first;
      hint.end = entry.last + 1;
      hint.root = entry.root_index;
      hint.family = entry.v6 ? 1 : 0;
      hint.metric = static_cast<int>(obs::SloMetric::Availability);
      hint.label = std::string("transport-") +
                   std::string(netsim::to_string(entry.cause));
      hint.weight = 0.5;
      result.hints.push_back(hint);
    }
  }

  obs::IncidentTracker tracker(options.thresholds);
  tracker.observe(result.windows);
  tracker.add_hints(result.hints);
  result.incidents = tracker.incidents();

  // A stream's JSONL lines read only its own run of windows, so the streams
  // are sized on the workers, and then written on the workers straight into
  // their place in slo.jsonl, after the scenario header line
  // (windows_to_jsonl of no windows). No stream holds a string of its own.
  std::array<size_t, kStreams + 1> runs{};
  for (const obs::SloWindow& w : result.windows)
    ++runs[w.root * 2 + (w.v6 ? 1 : 0) + 1];
  for (size_t s = 0; s < kStreams; ++s) runs[s + 1] += runs[s];
  const auto stream_windows = [&](size_t s) {
    return std::span(result.windows).subspan(runs[s], runs[s + 1] - runs[s]);
  };
  result.slo_jsonl = obs::SloCollector::windows_to_jsonl(
      {}, config_.scenario_name);
  std::array<size_t, kStreams + 1> offsets{result.slo_jsonl.size()};
  exec::parallel_for(kStreams, workers, [&](size_t s, size_t) {
    offsets[s + 1] =
        obs::SloCollector::write_window_lines(stream_windows(s), nullptr);
  });
  for (size_t s = 0; s < kStreams; ++s) offsets[s + 1] += offsets[s];
  result.slo_jsonl.resize(offsets[kStreams]);
  exec::parallel_for(kStreams, workers, [&](size_t s, size_t) {
    obs::SloCollector::write_window_lines(
        stream_windows(s), result.slo_jsonl.data() + offsets[s]);
  });
  result.incidents_jsonl = obs::IncidentTracker::incidents_to_jsonl(
      result.incidents, config_.scenario_name);

  for (uint8_t root = 0; root < obs::kSloRoots; ++root) {
    for (const bool v6 : {false, true}) {
      const obs::SloCollector::Drain::Totals& totals = drained.totals(root, v6);
      result.probes += totals.probes;
      result.failed_probes += totals.probes - totals.answered;
      result.latency_samples += totals.latency_count;
      result.publication_count += totals.publication_count;
      result.staleness_samples += totals.staleness_count;
      result.integrity_checks += totals.integrity_checks;
      result.integrity_failures += totals.integrity_checks - totals.integrity_ok;
    }
  }
  if (obs_.metrics) {
    obs_.count("campaign.slo_timeline_probes", result.probes);
    obs_.count("campaign.slo_timeline_incidents", result.incidents.size());
  }
  return result;
}

}  // namespace rootsim::measure
