#include "core/haar.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/wavelet.h"
#include "util/math.h"
#include "util/random.h"

namespace probsyn {
namespace {

TEST(Haar, RoundTripIsExact) {
  Rng rng(5);
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u}) {
    std::vector<double> data(n);
    for (double& d : data) d = rng.NextUniform(-10, 10);
    std::vector<double> coeffs = HaarTransform(data);
    std::vector<double> back = HaarInverse(coeffs);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], data[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Haar, ParsevalHolds) {
  Rng rng(6);
  std::vector<double> data(128);
  for (double& d : data) d = rng.NextUniform(-3, 3);
  std::vector<double> coeffs = HaarTransform(data);
  double energy_data = 0, energy_coeffs = 0;
  for (double d : data) energy_data += d * d;
  for (double c : coeffs) energy_coeffs += c * c;
  EXPECT_NEAR(energy_data, energy_coeffs, 1e-9);
}

TEST(Haar, PaperFigureOneExample) {
  // A = [2, 2, 0, 2, 3, 5, 4, 4]: the paper's unnormalized coefficients
  // are [11/4, -5/4, 1/2, 0, 0, -1, -1, 0]; our orthonormal coefficients
  // are those scaled by sqrt(support size / ... ): c0 = avg * sqrt(8),
  // detail at level l scaled by sqrt(2^l... verify via reconstruction
  // instead, plus the two hand-checkable entries.
  std::vector<double> data{2, 2, 0, 2, 3, 5, 4, 4};
  std::vector<double> coeffs = HaarTransform(data);
  // c0 (orthonormal) = sum / sqrt(8) = 22 / sqrt(8) = avg * sqrt(8).
  EXPECT_NEAR(coeffs[0], 22.0 / std::sqrt(8.0), 1e-12);
  // Paper: unnormalized c1 = -5/4; orthonormal = -5/4 * sqrt(8)/2... check
  // via definition: (avgL - avgR)/2 * ... simplest: c1 = (sumL - sumR)/sqrt(8).
  EXPECT_NEAR(coeffs[1], (2 + 2 + 0 + 2 - 3 - 5 - 4 - 4) / std::sqrt(8.0),
              1e-12);
  // The paper's c3 = 0 (its tree position corresponds to our index 3).
  EXPECT_NEAR(coeffs[3], 0.0, 1e-12);
}

TEST(Haar, SingleElement) {
  std::vector<double> data{5.0};
  std::vector<double> coeffs = HaarTransform(data);
  ASSERT_EQ(coeffs.size(), 1u);
  EXPECT_DOUBLE_EQ(coeffs[0], 5.0);
  EXPECT_DOUBLE_EQ(HaarInverse(coeffs)[0], 5.0);
}

TEST(Haar, PadToPowerOfTwo) {
  std::vector<double> data{1, 2, 3};
  std::vector<double> padded = PadToPowerOfTwo(data);
  ASSERT_EQ(padded.size(), 4u);
  EXPECT_DOUBLE_EQ(padded[2], 3.0);
  EXPECT_DOUBLE_EQ(padded[3], 0.0);

  std::vector<double> exact{1, 2};
  EXPECT_EQ(PadToPowerOfTwo(exact).size(), 2u);
}

TEST(Haar, CoefficientLevels) {
  EXPECT_EQ(CoefficientLevel(0), 0u);
  EXPECT_EQ(CoefficientLevel(1), 0u);
  EXPECT_EQ(CoefficientLevel(2), 1u);
  EXPECT_EQ(CoefficientLevel(3), 1u);
  EXPECT_EQ(CoefficientLevel(4), 2u);
  EXPECT_EQ(CoefficientLevel(7), 2u);
}

TEST(Haar, CoefficientSupports) {
  // n = 8: index 1 spans all; index 2 spans [0,4); index 7 spans [6,8).
  SupportRange r0 = CoefficientSupport(0, 8);
  EXPECT_EQ(r0.lo, 0u);
  EXPECT_EQ(r0.hi, 8u);
  SupportRange r2 = CoefficientSupport(2, 8);
  EXPECT_EQ(r2.lo, 0u);
  EXPECT_EQ(r2.hi, 4u);
  SupportRange r7 = CoefficientSupport(7, 8);
  EXPECT_EQ(r7.lo, 6u);
  EXPECT_EQ(r7.hi, 8u);
}

TEST(Haar, LeafContributionScalesMatchBasisAmplitudes) {
  // Transform the indicator of coefficient k and compare leaf values.
  const std::size_t n = 16;
  for (std::size_t k : {0u, 1u, 2u, 5u, 8u, 15u}) {
    std::vector<double> coeffs(n, 0.0);
    coeffs[k] = 1.0;
    std::vector<double> leaf = HaarInverse(coeffs);
    SupportRange r = CoefficientSupport(k, n);
    double scale = LeafContributionScale(k, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < r.lo || i >= r.hi) {
        EXPECT_NEAR(leaf[i], 0.0, 1e-12);
      } else if (k == 0 || i < (r.lo + r.hi) / 2) {
        EXPECT_NEAR(leaf[i], scale, 1e-12) << "k=" << k << " i=" << i;
      } else {
        EXPECT_NEAR(leaf[i], -scale, 1e-12) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Haar, RangeSumMatchesDenseInverse) {
  Rng rng(17);
  const std::size_t n = 32;
  std::vector<double> data(n);
  for (double& d : data) d = rng.NextUniform(0, 5);
  std::vector<double> coeffs = HaarTransform(data);

  // Keep an arbitrary subset of coefficients.
  std::vector<WaveletCoefficient> kept;
  std::vector<double> dense(n, 0.0);
  for (std::size_t idx : {0u, 1u, 3u, 8u, 21u, 31u}) {
    kept.push_back({idx, coeffs[idx]});
    dense[idx] = coeffs[idx];
  }
  std::vector<double> expected = HaarInverse(dense);
  for (std::size_t a = 0; a < n; ++a) {
    EXPECT_NEAR(HaarRangeSum(kept, a, a, n), expected[a], 1e-10)
        << "i=" << a;
    double sum = 0.0;
    for (std::size_t b = a; b < n; ++b) {
      sum += expected[b];
      EXPECT_NEAR(HaarRangeSum(kept, a, b, n), sum, 1e-10)
          << "[" << a << "," << b << "]";
    }
  }
}

TEST(Haar, RangeSumWithoutScalingOrDetailTerms) {
  // Only detail terms: the scaling coefficient is absent.
  std::vector<WaveletCoefficient> detail_only{{1, 2.0}};
  EXPECT_NEAR(HaarRangeSum(detail_only, 0, 3, 8), 2.0 * std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(HaarRangeSum(detail_only, 0, 7, 8), 0.0);
  // Only the scaling term; and the empty set reconstructs zeros.
  std::vector<WaveletCoefficient> scaling_only{{0, 4.0}};
  EXPECT_DOUBLE_EQ(HaarRangeSum(scaling_only, 2, 5, 16), 4.0);
  EXPECT_DOUBLE_EQ(HaarRangeSum({}, 0, 15, 16), 0.0);
  EXPECT_DOUBLE_EQ(HaarRangeSum(scaling_only, 0, 0, 1), 4.0);
}

// Dense long-double reconstruction of a sparse coefficient set: the
// accuracy reference for both double-precision range-sum paths.
std::vector<long double> LongDoubleInverse(
    const std::vector<WaveletCoefficient>& kept, std::size_t n) {
  std::vector<long double> data(n, 0.0L), scratch(n);
  for (const WaveletCoefficient& c : kept) data[c.index] = c.value;
  const long double inv_sqrt2 = 1.0L / std::sqrt(2.0L);
  for (std::size_t len = 2; len <= n; len *= 2) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      scratch[2 * k] = (data[k] + data[half + k]) * inv_sqrt2;
      scratch[2 * k + 1] = (data[k] - data[half + k]) * inv_sqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + len, data.begin());
  }
  return data;
}

// The sparse walk must be at least as accurate as the dense path it
// replaced (inverse transform, then a Kahan sum over the range) on a sweep
// of power-of-two and padded domains, budgets from 1 to n, signed and
// spiky data, and ranges that stress the walk: points, the full domain,
// ranges crossing the root midpoint, ranges under one leaf pair, and
// random spans. Error is |estimate - reference| / max(1, sum |ghat_i|).
TEST(Haar, RangeSumIsAtLeastAsAccurateAsDenseKahan) {
  Rng rng(2009);
  double worst_sparse = 0.0;
  double worst_dense = 0.0;
  for (std::size_t domain : {64u, 256u, 1024u, 100u, 777u, 1000u}) {
    const std::size_t nt = NextPowerOfTwo(domain);
    for (bool spiky : {false, true}) {
      std::vector<double> data(domain);
      for (double& d : data) {
        d = spiky ? (rng.NextBounded(16) == 0 ? rng.NextUniform(-1e6, 1e6)
                                              : rng.NextUniform(0, 1e-3))
                  : rng.NextUniform(-1000, 1000);
      }
      for (std::size_t budget : {std::size_t{1}, std::size_t{2},
                                 std::size_t{7}, nt / 8, nt / 2, nt}) {
        WaveletSynopsis synopsis =
            BuildSseWaveletFromFrequencies(data, budget);
        const std::vector<long double> ghat =
            LongDoubleInverse(synopsis.coefficients(), nt);
        const std::vector<double> dense = synopsis.ToFrequencyVector();

        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        for (std::size_t i = 0; i < domain; ++i) ranges.emplace_back(i, i);
        ranges.emplace_back(0, domain - 1);
        for (std::size_t w : {1u, 3u, 17u, 100u}) {
          const std::size_t mid = nt / 2;
          if (mid + w <= domain) ranges.emplace_back(mid - w, mid + w - 1);
        }
        for (std::size_t j = 0; 2 * j + 1 < domain; j += 13) {
          ranges.emplace_back(2 * j, 2 * j + 1);
        }
        for (int r = 0; r < 50; ++r) {
          const std::size_t a = rng.NextBounded(domain);
          ranges.emplace_back(a, a + rng.NextBounded(domain - a));
        }

        for (auto [a, b] : ranges) {
          long double want = 0.0L;
          long double mass = 0.0L;
          KahanSum kahan;
          for (std::size_t i = a; i <= b; ++i) {
            want += ghat[i];
            mass += std::fabs(ghat[i]);
            kahan.Add(dense[i]);
          }
          const long double scale = std::max(1.0L, mass);
          const double sparse =
              HaarRangeSum(synopsis.coefficients(), a, b, nt);
          ASSERT_EQ(sparse, synopsis.EstimateRangeSum(a, b));
          worst_sparse = std::max(
              worst_sparse,
              static_cast<double>(std::fabs(sparse - want) / scale));
          worst_dense = std::max(
              worst_dense,
              static_cast<double>(std::fabs(kahan.value() - want) / scale));
        }
      }
    }
  }
  std::ostringstream figures;
  figures << std::scientific << worst_sparse << " " << worst_dense;
  RecordProperty("worst_sparse_vs_dense_kahan", figures.str());
  EXPECT_LE(worst_sparse, worst_dense)
      << "sparse " << worst_sparse << " vs dense Kahan " << worst_dense;
}

}  // namespace
}  // namespace probsyn
