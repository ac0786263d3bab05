#ifndef PROBSYN_CORE_HAAR_H_
#define PROBSYN_CORE_HAAR_H_

#include <cstddef>
#include <span>
#include <vector>

namespace probsyn {

// Orthonormal Haar DWT utilities (paper section 2.2, Figure 1).
//
// Coefficient indexing is the standard Mallat layout for a power-of-two
// input of size n:
//   * index 0: the scaling coefficient (overall average * sqrt(n));
//   * index i in [2^l, 2^{l+1}): the detail coefficient at resolution
//     level l (l = 0 coarsest), supported on the dyadic interval of
//     length n / 2^l starting at (i - 2^l) * n / 2^l;
//   * the children of detail node i are 2i and 2i+1 (while 2i < n); for
//     i >= n/2 the "children" are the data leaves 2i - n and 2i + 1 - n.
//
// Normalization is orthonormal: sum of squared coefficients equals the sum
// of squared data values (Parseval), so greedy selection by |coefficient|
// is SSE-optimal.

/// One retained Haar coefficient of a sparse (B-term) coefficient set.
struct WaveletCoefficient {
  std::size_t index = 0;
  double value = 0.0;  ///< Normalized (orthonormal) coefficient value.

  friend bool operator==(const WaveletCoefficient&, const WaveletCoefficient&) =
      default;
};

/// Forward transform; `data.size()` must be a power of two.
std::vector<double> HaarTransform(std::span<const double> data);

/// Inverse transform; exact round trip up to fp rounding.
std::vector<double> HaarInverse(std::span<const double> coefficients);

/// Zero-pads to the next power of two (identity if already a power of two).
/// Padding with zeros matches extending the probabilistic domain with
/// deterministic zero-frequency items.
std::vector<double> PadToPowerOfTwo(std::span<const double> data);

/// Resolution level of a coefficient index (0 for the scaling coefficient
/// and for detail index 1; in general floor(log2(i)) for i >= 1).
std::size_t CoefficientLevel(std::size_t index);

/// Dyadic support [lo, hi) of a coefficient over a domain of size n.
struct SupportRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Support of coefficient `index` in an n-point transform: the whole
/// domain for the scaling coefficient, its dyadic interval otherwise.
SupportRange CoefficientSupport(std::size_t index, std::size_t n);

/// |per-leaf reconstruction contribution| of coefficient `index` in an
/// n-point transform: 1/sqrt(n) for the scaling coefficient,
/// sqrt(2^l / n) for a detail coefficient at level l. The sign is + on the
/// left half of the support and - on the right half.
double LeafContributionScale(std::size_t index, std::size_t n);

/// Sum of the reconstructed values ghat_a + ... + ghat_b of an n-point
/// transform whose only nonzero coefficients are `coefficients` (sorted by
/// index). A detail node whose support lies wholly inside or outside
/// [a, b] adds exactly zero, so only the scaling term and the nodes on the
/// root paths of a and b are looked up: O(log n * log B), no O(n) state.
/// A point estimate is the range [i, i]. Precondition: a <= b < n.
double HaarRangeSum(std::span<const WaveletCoefficient> coefficients,
                    std::size_t a, std::size_t b, std::size_t n);

}  // namespace probsyn

#endif  // PROBSYN_CORE_HAAR_H_
