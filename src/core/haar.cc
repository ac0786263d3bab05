#include "core/haar.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

namespace {
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
}  // namespace

std::vector<double> HaarTransform(std::span<const double> data) {
  const std::size_t n = data.size();
  PROBSYN_CHECK(IsPowerOfTwo(n));
  std::vector<double> coeffs(data.begin(), data.end());
  std::vector<double> scratch(n);
  for (std::size_t len = n; len > 1; len /= 2) {
    std::size_t half = len / 2;
    // Write averages and details into scratch first: detail slots
    // [half, len) overlap the pair positions still being read.
    for (std::size_t k = 0; k < half; ++k) {
      double a = coeffs[2 * k];
      double b = coeffs[2 * k + 1];
      scratch[k] = (a + b) * kInvSqrt2;         // running averages
      scratch[half + k] = (a - b) * kInvSqrt2;  // details at this level
    }
    std::copy(scratch.begin(), scratch.begin() + len, coeffs.begin());
  }
  return coeffs;
}

std::vector<double> HaarInverse(std::span<const double> coefficients) {
  const std::size_t n = coefficients.size();
  PROBSYN_CHECK(IsPowerOfTwo(n));
  std::vector<double> data(coefficients.begin(), coefficients.end());
  std::vector<double> scratch(n);
  for (std::size_t len = 2; len <= n; len *= 2) {
    std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      double avg = data[k];
      double det = data[half + k];
      scratch[2 * k] = (avg + det) * kInvSqrt2;
      scratch[2 * k + 1] = (avg - det) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + len, data.begin());
  }
  return data;
}

std::vector<double> PadToPowerOfTwo(std::span<const double> data) {
  std::size_t n = NextPowerOfTwo(data.size());
  std::vector<double> padded(data.begin(), data.end());
  padded.resize(n, 0.0);
  return padded;
}

std::size_t CoefficientLevel(std::size_t index) {
  return index == 0 ? 0 : FloorLog2(index);
}

SupportRange CoefficientSupport(std::size_t index, std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && index < n);
  if (index == 0) return {0, n};
  std::size_t level = FloorLog2(index);
  std::size_t span = n >> level;  // n / 2^level
  std::size_t offset = index - (static_cast<std::size_t>(1) << level);
  return {offset * span, (offset + 1) * span};
}

double LeafContributionScale(std::size_t index, std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && index < n);
  if (index == 0) return 1.0 / std::sqrt(static_cast<double>(n));
  std::size_t level = FloorLog2(index);
  return std::sqrt(static_cast<double>(1ull << level) /
                   static_cast<double>(n));
}

namespace {

// The recursive part of HaarRangeSum: adds the contribution of detail node
// `node` (support [lo, hi)) and of its descendants to `total`, preorder.
// Coefficients are found by binary search from `first`: a descendant's
// index exceeds its ancestor's, so the search never looks back.
struct RangeWalk {
  std::span<const WaveletCoefficient> coefficients;
  std::size_t a;
  std::size_t b;
  std::size_t n;
  double total;

  // Items of [a, b] inside [lo, hi).
  double Overlap(std::size_t lo, std::size_t hi) const {
    const std::size_t from = std::max(a, lo);
    const std::size_t to = std::min(b + 1, hi);
    return to > from ? static_cast<double>(to - from) : 0.0;
  }

  void Visit(std::size_t node, std::size_t lo, std::size_t hi,
             std::size_t first) {
    // Wholly outside or wholly inside [a, b]: the halves cancel here and in
    // every descendant. A leaf is always one or the other, so the walk
    // never goes below the finest detail level.
    if (b < lo || hi <= a || (a <= lo && hi - 1 <= b)) return;
    const std::size_t mid = lo + (hi - lo) / 2;
    auto it = std::lower_bound(
        coefficients.begin() + static_cast<std::ptrdiff_t>(first),
        coefficients.end(), node,
        [](const WaveletCoefficient& c, std::size_t x) { return c.index < x; });
    first = static_cast<std::size_t>(it - coefficients.begin());
    if (it != coefficients.end() && it->index == node) {
      total += it->value * LeafContributionScale(node, n) *
               (Overlap(lo, mid) - Overlap(mid, hi));
    }
    Visit(2 * node, lo, mid, first);
    Visit(2 * node + 1, mid, hi, first);
  }
};

}  // namespace

double HaarRangeSum(std::span<const WaveletCoefficient> coefficients,
                    std::size_t a, std::size_t b, std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && a <= b && b < n);
  RangeWalk walk{coefficients, a, b, n, 0.0};
  std::size_t first = 0;
  if (!coefficients.empty() && coefficients.front().index == 0) {
    walk.total = coefficients.front().value * LeafContributionScale(0, n) *
                 static_cast<double>(b - a + 1);
    first = 1;
  }
  walk.Visit(1, 0, n, first);
  return walk.total;
}

}  // namespace probsyn
