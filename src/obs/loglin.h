// Fixed-layout log-linear histograms for the RSSAC002 telemetry plane and
// the SLO cells.
//
// RSSAC002v5 asks operators to publish size and volume *distributions* per
// instance per day; a useful implementation must (a) read back accurate
// quantiles (p50/p90/p99/p999 of response sizes span 512 B .. 64 KiB, so
// fixed linear buckets either blur the head or truncate the tail) and
// (b) merge across exec-pool shards without changing a single bit of the
// result — the byte-identity determinism suites diff the merged export
// against a serial run's.
//
// The layout is therefore *fixed at compile time* for every histogram:
// values 0..15 get exact unit buckets, and every power-of-two octave above
// is split into 16 linear sub-buckets (the HdrHistogram/DDSketch shape,
// ~3% relative error). Only occupied buckets are stored, as (index, count)
// slots in ascending index order, so a histogram's memory grows with the
// buckets it holds, not with the highest value it has seen (an SLO cell
// holds about a dozen RTTs of 20-300 ms).
// Identical layout everywhere makes merge a sorted merge that adds counts
// at equal indices: associative, commutative, and bit-exact regardless of
// shard count or merge order. It also lets a running sum of many
// histograms live outside them: the SLO window sweep (obs/slo.cpp) adds
// and subtracts cells' buckets in dense per-bucket counts and reads its
// quantiles through QuantileRank, the arithmetic quantile() uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rootsim::obs {

class LogLinearHistogram {
 public:
  /// 16 exact unit buckets + 16 sub-buckets for each octave [2^e, 2^(e+1)),
  /// e in [4, 63].
  static constexpr uint32_t kSubBuckets = 16;
  static constexpr uint32_t kBucketCount = kSubBuckets + (64 - 4) * kSubBuckets;

  /// Bucket index of a value; the mapping is total over uint64_t.
  static uint32_t bucket_index(uint64_t value);
  /// Inclusive lower bound of a bucket.
  static uint64_t bucket_lower(uint32_t index);
  /// Exclusive upper bound of a bucket (lower + width; saturates at the top).
  static uint64_t bucket_upper(uint32_t index);

  void observe(uint64_t value, uint64_t n = 1);

  /// Adds `other`'s counts bucket by bucket (a sorted merge of the slots).
  /// Because every histogram shares one fixed layout this is exact and
  /// associative: merging shards in any grouping or order gives the same
  /// buckets a single-pass run would. Allocates nothing when every bucket of
  /// `other` is already occupied here.
  void merge_from(const LogLinearHistogram& other);

  /// Empties the histogram but keeps its slot storage, so refilling it
  /// allocates only past the buckets it held before.
  void clear();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }

  /// Interpolated quantile, q in [0,1]: locates the bucket holding rank
  /// q*count and interpolates linearly inside the bucket's value range
  /// rather than returning the bucket's upper bound. The q*count rank makes
  /// the estimate invariant under uniformly scaling every bucket count, so
  /// merging k identical shards reads out the same quantiles as one shard —
  /// the property the collector merge path relies on. Exact for values < 16
  /// (unit buckets); within one sub-bucket width (~3%) above. 0 when empty.
  double quantile(double q) const;

  /// quantile()'s arithmetic, for any counts over this layout: the SLO
  /// sweep's dense window sums read their quantiles through it too, so the
  /// two read the same bits. The rank is q*count, q clamped to [0, 1].
  class QuantileRank {
   public:
    QuantileRank(double q, uint64_t count);
    /// Whether the rank lies among the first `cumulative` counts: the
    /// bucket holding it is the first whose running total exceeds it.
    bool within(uint64_t cumulative) const;
    /// The rank's value in bucket `index`, which holds `in_bucket` counts
    /// above the `below` counts of the buckets under it: placed linearly
    /// inside the bucket's [lower, upper) range.
    double value_in(uint32_t index, uint64_t below, uint64_t in_bucket) const;

   private:
    double rank_ = 0;
  };

  /// Calls visit(index, count) for each occupied bucket, ascending by
  /// index; reads only.
  template <typename Visit>
  void for_each_bucket(Visit&& visit) const {
    for (const Slot& slot : slots_) visit(slot.index, slot.count);
  }

  /// Sparse occupied buckets, ascending: {lower, upper, count}.
  struct Bucket {
    uint64_t lower = 0;
    uint64_t upper = 0;
    uint64_t count = 0;
  };
  std::vector<Bucket> nonzero_buckets() const;

  /// {"count":N,"sum":S,"max":M,"p50":..,"p90":..,"p99":..,"p999":..,
  ///  "buckets":[[lo,hi,n],...]} — the shape rssac002.jsonl embeds.
  std::string to_json() const;

 private:
  /// One occupied bucket.
  struct Slot {
    uint32_t index = 0;
    uint64_t count = 0;
  };
  std::vector<Slot> slots_;  // ascending by index, one per occupied bucket
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace rootsim::obs
