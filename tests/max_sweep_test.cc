// Differential test of the max-error oracle's incremental column sweep.
//
// MaxErrorOracle::FlatSweep (and the virtual StartSweep adapter over it)
// must return Cost(s, e) BIT FOR BIT — cost and representative — for every
// bucket, and Cost itself must equal the original per-bucket search, kept
// below as LegacyCost over the public PointErrorTables / envelope API.
// The inputs stress the sweep's reuse rules: wide value grids (|V| in the
// hundreds, many bracketing segments), structured movie-linkage regimes
// (runs of identical lines), and tie-heavy pmfs whose mass sits exactly at
// 0.5 (zero-slope lines and flat envelope bottoms), each uniform and with
// a workload carrying zero weights.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/max_oracle.h"
#include "core/point_error.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "model/value_pdf.h"
#include "util/envelope.h"
#include "util/random.h"
#include "util/search.h"

namespace probsyn {
namespace {

// The per-bucket search as it was written before the sweep existed: the
// std::function ternary search over EnvelopeAt-style evaluations (binary
// search per item), then the allocating envelope minimization.
BucketCost LegacyCost(const PointErrorTables& tables, bool relative,
                      const std::vector<double>& weights, std::size_t s,
                      std::size_t e) {
  const std::vector<double>& grid = tables.grid();
  auto weight = [&](std::size_t i) {
    return weights.empty() ? 1.0 : weights[i];
  };
  auto envelope = [&](double v) {
    double worst = 0.0;
    for (std::size_t i = s; i <= e; ++i) {
      double err = relative ? tables.AbsoluteRelativeError(i, v)
                            : tables.AbsoluteError(i, v);
      worst = std::max(worst, weight(i) * err);
    }
    return worst;
  };
  std::size_t l_star = TernarySearchMinIndex(
      0, grid.size() - 1, [&](std::size_t l) { return envelope(grid[l]); });
  std::vector<Line> lines;
  BucketCost best{grid[l_star], envelope(grid[l_star])};
  auto consider_segment = [&](std::size_t l) {
    if (l + 1 >= grid.size()) return;
    lines.clear();
    for (std::size_t i = s; i <= e; ++i) {
      Line line = tables.AbsoluteErrorLine(i, l, relative);
      lines.push_back(Line{line.slope * weight(i), line.intercept * weight(i)});
    }
    EnvelopeMin m = MinimizeUpperEnvelope(lines, grid[l], grid[l + 1]);
    if (m.value < best.cost) best = {m.x, m.value};
  };
  if (l_star > 0) consider_segment(l_star - 1);
  consider_segment(l_star);
  best.cost = std::max(0.0, best.cost);
  return best;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult SameBits(const BucketCost& want,
                                    const BucketCost& got) {
  if (Bits(want.cost) == Bits(got.cost) &&
      Bits(want.representative) == Bits(got.representative)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "want (cost " << want.cost << ", rep " << want.representative
         << ") got (cost " << got.cost << ", rep " << got.representative
         << ")";
}

enum class InputKind { kWideGrid, kMovie, kTies };

struct SweepCase {
  InputKind kind;
  std::size_t n;
  bool relative;
  bool weighted;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = c.kind == InputKind::kWideGrid ? "WideGrid"
                     : c.kind == InputKind::kMovie  ? "Movie"
                                                    : "Ties";
  name += std::to_string(c.n);
  name += c.relative ? "_MARE" : "_MAE";
  if (c.weighted) name += "_weighted";
  return name;
}

// Every item's mass sits on at most three values of a six-value set, with
// probabilities from {0.25, 0.5, 1}: cumulative masses hit exactly 0.5,
// which makes error lines flat (slope 2 * 0.5 - 1 = 0), and neighbouring
// items repeat each other's pmfs.
ValuePdfInput TieHeavyInput(std::size_t n, std::uint64_t seed) {
  const double values[] = {0.0, 1.0, 2.0, 4.0, 7.0, 12.0};
  Rng rng(seed);
  std::vector<ValuePdf> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = values[rng.NextBounded(6)];
    const double b = values[rng.NextBounded(6)];
    const double c = values[rng.NextBounded(6)];
    std::vector<ValueProb> entries;
    switch (rng.NextBounded(3)) {
      case 0:
        entries = {{a, 1.0}};
        break;
      case 1:
        entries = {{a, 0.5}, {b, 0.5}};
        break;
      default:
        entries = {{a, 0.5}, {b, 0.25}, {c, 0.25}};
        break;
    }
    // Merge repeated values and sort, as ValuePdf requires.
    std::sort(entries.begin(), entries.end(),
              [](const ValueProb& x, const ValueProb& y) {
                return x.value < y.value;
              });
    std::vector<ValueProb> merged;
    for (const ValueProb& entry : entries) {
      if (!merged.empty() && merged.back().value == entry.value) {
        merged.back().probability += entry.probability;
      } else {
        merged.push_back(entry);
      }
    }
    auto pdf = ValuePdf::Create(std::move(merged));
    EXPECT_TRUE(pdf.ok()) << pdf.status();
    items.push_back(std::move(pdf).value());
  }
  return ValuePdfInput(std::move(items));
}

ValuePdfInput MakeInput(const SweepCase& c) {
  switch (c.kind) {
    case InputKind::kWideGrid:
      return GenerateRandomValuePdf(
          {.domain_size = c.n, .max_support = 6, .max_value = 400,
           .seed = 1000 + c.n});
    case InputKind::kMovie: {
      MovieLinkageOptions options;
      options.domain_size = c.n;
      options.seed = 2000 + c.n;
      auto induced = InduceValuePdf(GenerateMovieLinkage(options));
      EXPECT_TRUE(induced.ok()) << induced.status();
      return std::move(induced).value();
    }
    case InputKind::kTies:
      return TieHeavyInput(c.n, 3000 + c.n);
  }
  return {};
}

// Mixed weights with zero-weight items scattered through and one zero
// stretch, so buckets that ignore every item occur too.
std::vector<double> MakeWeights(std::size_t n) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = (i % 7 == 3) ? 0.0 : 0.5 + 0.75 * static_cast<double>(i % 5);
  }
  for (std::size_t i = n / 3; i < n / 3 + 9 && i < n; ++i) weights[i] = 0.0;
  return weights;
}

class MaxErrorSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MaxErrorSweepTest, SweepAndCostMatchPerBucketSearchBitForBit) {
  const SweepCase& c = GetParam();
  const ValuePdfInput input = MakeInput(c);
  ASSERT_EQ(input.domain_size(), c.n);
  auto tables = std::make_shared<const PointErrorTables>(input, 0.5);
  const std::vector<double> weights =
      c.weighted ? MakeWeights(c.n) : std::vector<double>{};
  const MaxErrorOracle oracle(tables, c.relative, weights);
  if (c.kind == InputKind::kWideGrid) {
    EXPECT_GE(tables->grid().size(), 100u);
  }

  // The legacy search is the slow side; above 256 items it checks every
  // eighth column (still every bucket of those columns).
  const std::size_t legacy_stride = c.n > 256 ? 8 : 1;
  for (std::size_t e = 0; e < c.n; ++e) {
    MaxErrorOracle::FlatSweep sweep(oracle, e);
    auto adapter = oracle.StartSweep(e);
    for (std::size_t s = e;; --s) {
      const BucketCost swept = sweep.Extend();
      const BucketCost cost = oracle.Cost(s, e);
      ASSERT_TRUE(SameBits(cost, swept)) << "sweep [" << s << ", " << e << "]";
      ASSERT_TRUE(SameBits(cost, adapter->Extend()))
          << "adapter [" << s << ", " << e << "]";
      if (e % legacy_stride == legacy_stride - 1 || legacy_stride == 1) {
        ASSERT_TRUE(SameBits(LegacyCost(*tables, c.relative, weights, s, e),
                             cost))
            << "Cost vs legacy [" << s << ", " << e << "]";
      }
      if (s == 0) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, MaxErrorSweepTest,
    ::testing::Values(SweepCase{InputKind::kWideGrid, 160, false, false},
                      SweepCase{InputKind::kWideGrid, 160, true, false},
                      SweepCase{InputKind::kWideGrid, 160, false, true},
                      SweepCase{InputKind::kWideGrid, 160, true, true},
                      SweepCase{InputKind::kMovie, 512, false, false},
                      SweepCase{InputKind::kMovie, 512, true, true},
                      SweepCase{InputKind::kMovie, 200, false, true},
                      SweepCase{InputKind::kMovie, 200, true, false},
                      SweepCase{InputKind::kTies, 192, false, false},
                      SweepCase{InputKind::kTies, 192, true, false},
                      SweepCase{InputKind::kTies, 192, false, true},
                      SweepCase{InputKind::kTies, 192, true, true}),
    CaseName);

}  // namespace
}  // namespace probsyn
