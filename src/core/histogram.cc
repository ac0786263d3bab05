#include "core/histogram.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "util/logging.h"

namespace probsyn {

Status Histogram::Validate(std::size_t n) const {
  if (buckets_.empty()) {
    return n == 0 ? Status::OK()
                  : Status::InvalidArgument("empty histogram, nonempty domain");
  }
  if (buckets_.front().start != 0) {
    return Status::InvalidArgument("first bucket must start at 0");
  }
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    const HistogramBucket& b = buckets_[k];
    if (b.end < b.start) {
      return Status::InvalidArgument("bucket end precedes start");
    }
    if (k > 0 && b.start != buckets_[k - 1].end + 1) {
      return Status::InvalidArgument("buckets do not tile the domain");
    }
  }
  if (buckets_.back().end != n - 1) {
    return Status::InvalidArgument("last bucket must end at n-1");
  }
  return Status::OK();
}

std::size_t Histogram::BucketIndexOf(std::size_t i) const {
  PROBSYN_CHECK(!buckets_.empty() && i <= buckets_.back().end);
  // First bucket whose end >= i, by a branch-free lower bound: the halving
  // step is a conditional move, so random probes pay no mispredictions.
  const HistogramBucket* first = buckets_.data();
  for (std::size_t len = buckets_.size(); len > 1;) {
    const std::size_t half = len / 2;
    first = first[half - 1].end < i ? first + half : first;
    len -= half;
  }
  return static_cast<std::size_t>(first - buckets_.data());
}

double Histogram::Estimate(std::size_t i) const {
  return buckets_[BucketIndexOf(i)].representative;
}

double Histogram::EstimateRangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_CHECK(a <= b);
  double total = 0.0;
  for (std::size_t k = BucketIndexOf(a); k < buckets_.size(); ++k) {
    const HistogramBucket& bucket = buckets_[k];
    if (bucket.start > b) break;
    std::size_t lo = std::max(a, bucket.start);
    std::size_t hi = std::min(b, bucket.end);
    total += static_cast<double>(hi - lo + 1) * bucket.representative;
  }
  return total;
}

std::vector<double> Histogram::ToFrequencyVector() const {
  std::vector<double> out(domain_size(), 0.0);
  for (const HistogramBucket& b : buckets_) {
    for (std::size_t i = b.start; i <= b.end; ++i) out[i] = b.representative;
  }
  return out;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  for (const HistogramBucket& b : buckets_) {
    os << "[" << b.start << ", " << b.end << "] -> " << b.representative
       << "\n";
  }
  return os.str();
}

void ForEachBucketization(
    std::size_t n, std::size_t num_buckets,
    const std::function<void(const std::vector<std::size_t>&)>& fn) {
  if (num_buckets == 0 || num_buckets > n) return;
  // Choose num_buckets-1 interior boundaries among positions 0..n-2, then
  // append the forced final boundary n-1.
  std::vector<std::size_t> ends(num_buckets);
  std::function<void(std::size_t, std::size_t)> rec =
      [&](std::size_t k, std::size_t next_start) {
        if (k + 1 == num_buckets) {
          ends[k] = n - 1;
          fn(ends);
          return;
        }
        // Bucket k may end anywhere leaving room for the remaining buckets.
        for (std::size_t e = next_start; e + (num_buckets - 1 - k) <= n - 1;
             ++e) {
          ends[k] = e;
          rec(k + 1, e + 1);
        }
      };
  rec(0, 0);
}

}  // namespace probsyn
