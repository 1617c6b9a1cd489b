#include "obs/loglin.h"

#include <algorithm>
#include <bit>

#include "util/strings.h"

namespace rootsim::obs {

uint32_t LogLinearHistogram::bucket_index(uint64_t value) {
  if (value < kSubBuckets) return static_cast<uint32_t>(value);
  // 2^e <= value < 2^(e+1), e >= 4; the top 4 mantissa bits below the
  // leading one select the linear sub-bucket.
  const uint32_t e = 63 - static_cast<uint32_t>(std::countl_zero(value));
  const uint32_t sub =
      static_cast<uint32_t>((value >> (e - 4)) & (kSubBuckets - 1));
  return kSubBuckets + (e - 4) * kSubBuckets + sub;
}

uint64_t LogLinearHistogram::bucket_lower(uint32_t index) {
  if (index < kSubBuckets) return index;
  const uint32_t e = 4 + (index - kSubBuckets) / kSubBuckets;
  const uint32_t sub = (index - kSubBuckets) % kSubBuckets;
  return static_cast<uint64_t>(kSubBuckets + sub) << (e - 4);
}

uint64_t LogLinearHistogram::bucket_upper(uint32_t index) {
  if (index < kSubBuckets) return index + 1;
  const uint32_t e = 4 + (index - kSubBuckets) / kSubBuckets;
  const uint64_t width = uint64_t{1} << (e - 4);
  const uint64_t lower = bucket_lower(index);
  // The very last bucket's upper bound would overflow; saturate.
  return lower > ~uint64_t{0} - width ? ~uint64_t{0} : lower + width;
}

void LogLinearHistogram::observe(uint64_t value, uint64_t n) {
  if (n == 0) return;
  const uint32_t index = bucket_index(value);
  auto slot = std::lower_bound(
      slots_.begin(), slots_.end(), index,
      [](const Slot& s, uint32_t i) { return s.index < i; });
  if (slot == slots_.end() || slot->index != index)
    slot = slots_.insert(slot, Slot{index, 0});
  slot->count += n;
  count_ += n;
  sum_ += value * n;
  max_ = std::max(max_, value);
}

void LogLinearHistogram::merge_from(const LogLinearHistogram& other) {
  // Count the buckets of `other` not occupied here, grow by exactly that
  // many, then merge from the back so every slot moves at most once. When
  // none are missing the resize is a no-op and each slot is added in place.
  size_t missing = 0;
  size_t mine = 0;
  for (const Slot& theirs : other.slots_) {
    while (mine < slots_.size() && slots_[mine].index < theirs.index) ++mine;
    if (mine == slots_.size() || slots_[mine].index != theirs.index) ++missing;
  }
  mine = slots_.size();
  size_t next = other.slots_.size();
  size_t out = mine + missing;
  slots_.resize(out);
  while (next > 0) {
    const Slot theirs = other.slots_[next - 1];
    if (mine > 0 && slots_[mine - 1].index > theirs.index) {
      slots_[--out] = slots_[--mine];
      continue;
    }
    --next;
    if (mine > 0 && slots_[mine - 1].index == theirs.index)
      slots_[--out] = Slot{theirs.index, slots_[--mine].count + theirs.count};
    else
      slots_[--out] = theirs;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LogLinearHistogram::clear() {
  slots_.clear();
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

LogLinearHistogram::QuantileRank::QuantileRank(double q, uint64_t count)
    : rank_(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)) {}

bool LogLinearHistogram::QuantileRank::within(uint64_t cumulative) const {
  return rank_ < static_cast<double>(cumulative);
}

double LogLinearHistogram::QuantileRank::value_in(uint32_t index,
                                                  uint64_t below,
                                                  uint64_t in_bucket) const {
  const double lower = static_cast<double>(bucket_lower(index));
  const double upper = static_cast<double>(bucket_upper(index));
  const double offset =
      (rank_ - static_cast<double>(below)) / static_cast<double>(in_bucket);
  return lower + (upper - lower) * offset;
}

double LogLinearHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  // Rank-based with within-bucket linear interpolation: rank r falls into
  // the bucket where the cumulative count first exceeds it, and the value
  // is placed proportionally inside that bucket's [lower, upper) range —
  // never snapped to the upper bound. Rank q*count (not q*(count-1)) keeps
  // the estimate invariant under doubling every bucket, i.e. merging k
  // identical collector shards cannot move a quantile.
  const QuantileRank rank(q, count_);
  uint64_t below = 0;
  for (const Slot& slot : slots_) {
    if (rank.within(below + slot.count))
      return rank.value_in(slot.index, below, slot.count);
    below += slot.count;
  }
  return static_cast<double>(max_);
}

std::vector<LogLinearHistogram::Bucket> LogLinearHistogram::nonzero_buckets()
    const {
  std::vector<Bucket> out;
  for (const Slot& slot : slots_)
    if (slot.count)
      out.push_back(
          {bucket_lower(slot.index), bucket_upper(slot.index), slot.count});
  return out;
}

std::string LogLinearHistogram::to_json() const {
  std::string out = util::format(
      "{\"count\":%llu,\"sum\":%llu,\"max\":%llu",
      static_cast<unsigned long long>(count_),
      static_cast<unsigned long long>(sum_),
      static_cast<unsigned long long>(max_));
  out += util::format(",\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f,\"p999\":%.1f",
                      quantile(0.50), quantile(0.90), quantile(0.99),
                      quantile(0.999));
  out += ",\"buckets\":[";
  bool first = true;
  for (const Bucket& bucket : nonzero_buckets()) {
    if (!first) out += ",";
    first = false;
    out += util::format("[%llu,%llu,%llu]",
                        static_cast<unsigned long long>(bucket.lower),
                        static_cast<unsigned long long>(bucket.upper),
                        static_cast<unsigned long long>(bucket.count));
  }
  out += "]}";
  return out;
}

}  // namespace rootsim::obs
