// Kernel/reference parity: every specialized DP kernel (core/dp_kernels.h)
// must be BIT-identical to the reference scalar solver — err rows, choice
// rows (traceback ties included), and cached representatives — across every
// oracle type x {kSum, kMax} x budgets, sequentially and in the blocked
// parallel form, with and without workspace reuse. This pins down the
// tentpole guarantee that the kernels only change speed, never answers.

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "core/abs_oracle.h"
#include "core/dp_kernels.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "model/value_pdf.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse,  ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae,  ErrorMetric::kMare};

// Exact (bitwise) table equality: EXPECT_EQ on doubles is ==, which is the
// contract — not "close enough".
void ExpectBitIdenticalTables(const HistogramDpResult& expected,
                              const HistogramDpResult& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.domain_size(), actual.domain_size()) << label;
  ASSERT_EQ(expected.table_layers(), actual.table_layers()) << label;
  const std::size_t n = expected.domain_size();
  for (std::size_t b = 1; b <= expected.table_layers(); ++b) {
    auto err_e = expected.ErrorRow(b);
    auto err_a = actual.ErrorRow(b);
    auto cho_e = expected.ChoiceRow(b);
    auto cho_a = actual.ChoiceRow(b);
    auto rep_e = expected.RepresentativeRow(b);
    auto rep_a = actual.RepresentativeRow(b);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(err_e[j], err_a[j]) << label << " err b=" << b << " j=" << j;
      ASSERT_EQ(cho_e[j], cho_a[j]) << label << " choice b=" << b
                                    << " j=" << j;
      ASSERT_EQ(rep_e[j], rep_a[j]) << label << " rep b=" << b << " j=" << j;
    }
  }
}

// Solves with the reference scalar kernel and with the specialized kernel
// (sequentially, in parallel, and through a reused workspace) and demands
// bitwise equality everywhere.
void CheckKernelParity(const BucketCostOracle& oracle, DpCombiner combiner,
                       std::size_t max_buckets, const std::string& label) {
  DpKernelOptions reference_options;
  reference_options.kernel = DpKernelKind::kReference;
  HistogramDpResult reference = SolveHistogramDpWithKernel(
      oracle, max_buckets, combiner, reference_options);

  const DpKernelKind kind = SelectDpKernel(oracle);

  DpKernelOptions kernel_options;
  kernel_options.kernel = kind;
  HistogramDpResult kernel =
      SolveHistogramDpWithKernel(oracle, max_buckets, combiner,
                                 kernel_options);
  EXPECT_EQ(kernel.kernel(), kind);
  ExpectBitIdenticalTables(reference, kernel, label + "/sequential");

  ThreadPool pool(3);
  DpKernelOptions parallel_options;
  parallel_options.kernel = kind;
  parallel_options.pool = &pool;
  HistogramDpResult parallel = SolveHistogramDpWithKernel(
      oracle, max_buckets, combiner, parallel_options);
  ExpectBitIdenticalTables(reference, parallel, label + "/parallel");

  DpWorkspace workspace;
  DpKernelOptions reuse_options;
  reuse_options.kernel = kind;
  reuse_options.workspace = &workspace;
  {
    // Dirty the workspace with an unrelated solve (different budget), then
    // reuse it: stale storage must not leak into the result.
    HistogramDpResult scratch = SolveHistogramDpWithKernel(
        oracle, std::max<std::size_t>(1, max_buckets / 2), combiner,
        reuse_options);
    (void)scratch;
  }
  HistogramDpResult reused = SolveHistogramDpWithKernel(
      oracle, max_buckets, combiner, reuse_options);
  ExpectBitIdenticalTables(reference, reused, label + "/workspace-reuse");
}

struct ParityCase {
  ErrorMetric metric;
  SseVariant variant;
  double c;
  std::uint64_t seed;
  bool weighted;
};

std::string ParityCaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string name = ErrorMetricName(info.param.metric);
  if (info.param.metric == ErrorMetric::kSse &&
      info.param.variant == SseVariant::kWorldMean) {
    name += "wm";
  }
  if (info.param.weighted) name += "weighted";
  return name + "_seed" + std::to_string(info.param.seed);
}

class DpKernelParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DpKernelParityTest, BitIdenticalAcrossCombinersAndBudgets) {
  const ParityCase& param = GetParam();
  const std::size_t kDomain = 64;
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = kDomain, .max_support = 4, .max_value = 8,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = param.variant;
  if (param.weighted) {
    // A zero-weight stretch exercises the oracles' "workload ignores the
    // bucket" branches; ties abound there.
    options.workload.assign(kDomain, 1.0);
    for (std::size_t i = 10; i < 30; ++i) options.workload[i] = 0.0;
    for (std::size_t i = 40; i < kDomain; ++i) options.workload[i] = 2.5;
  }
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->kernel, SelectDpKernel(*bundle->oracle));

  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    for (std::size_t budget : {std::size_t{1}, std::size_t{5}, kDomain}) {
      std::string label = std::string(ErrorMetricName(param.metric)) +
                          (combiner == DpCombiner::kSum ? "/sum" : "/max") +
                          "/B=" + std::to_string(budget);
      CheckKernelParity(*bundle->oracle, combiner, budget, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OraclesAndSeeds, DpKernelParityTest,
    ::testing::Values(
        ParityCase{ErrorMetric::kSse, SseVariant::kFixedRepresentative, 1.0,
                   101, false},
        ParityCase{ErrorMetric::kSse, SseVariant::kWorldMean, 1.0, 102,
                   false},
        ParityCase{ErrorMetric::kSse, SseVariant::kFixedRepresentative, 1.0,
                   103, true},
        ParityCase{ErrorMetric::kSsre, SseVariant::kWorldMean, 0.5, 104,
                   false},
        ParityCase{ErrorMetric::kSsre, SseVariant::kWorldMean, 1.0, 105,
                   true},
        ParityCase{ErrorMetric::kSae, SseVariant::kWorldMean, 1.0, 106,
                   false},
        ParityCase{ErrorMetric::kSae, SseVariant::kWorldMean, 1.0, 107,
                   true},
        ParityCase{ErrorMetric::kSare, SseVariant::kWorldMean, 0.5, 108,
                   false},
        ParityCase{ErrorMetric::kMae, SseVariant::kWorldMean, 1.0, 109,
                   false},
        ParityCase{ErrorMetric::kMae, SseVariant::kWorldMean, 1.0, 110,
                   true},
        ParityCase{ErrorMetric::kMare, SseVariant::kWorldMean, 0.5, 111,
                   false}),
    ParityCaseName);

// --- Pooled exact max-error DP -------------------------------------------

// Forwards Cost() and keeps the default StartSweep, so the reference DP
// fills every column with independent per-bucket Cost() searches — the
// baseline the max-error oracle's incremental sweep must reproduce.
class PerBucketOracle final : public BucketCostOracle {
 public:
  explicit PerBucketOracle(const BucketCostOracle& inner) : inner_(inner) {}
  std::size_t domain_size() const override { return inner_.domain_size(); }
  BucketCost Cost(std::size_t s, std::size_t e) const override {
    return inner_.Cost(s, e);
  }

 private:
  const BucketCostOracle& inner_;
};

ValuePdfInput MovieValuePdf(std::size_t n, std::uint64_t seed) {
  MovieLinkageOptions movie;
  movie.domain_size = n;
  movie.seed = seed;
  auto induced = InduceValuePdf(GenerateMovieLinkage(movie));
  EXPECT_TRUE(induced.ok()) << induced.status();
  return std::move(induced).value();
}

HistogramDpResult SolveMaxDp(const BucketCostOracle& oracle,
                             std::size_t budget, DpKernelKind kind,
                             std::size_t lanes) {
  ThreadPool pool(lanes - 1);
  DpKernelOptions options;
  options.kernel = kind;
  options.pool = lanes > 1 ? &pool : nullptr;
  return SolveHistogramDpWithKernel(oracle, budget, DpCombiner::kMax,
                                    options);
}

void ExpectSameHistograms(const HistogramDpResult& expected,
                          const HistogramDpResult& actual,
                          const std::string& label) {
  for (std::size_t b = 1; b <= expected.table_layers(); ++b) {
    EXPECT_EQ(expected.ExtractHistogram(b).buckets(),
              actual.ExtractHistogram(b).buckets())
        << label << " B=" << b;
  }
}

// n = 256 (the repo benchmark's exact-MAE size): the kernel's sweep under
// the strided fill fan-out, at every lane count and SIMD path, and the
// reference kernel over the virtual sweep, all equal the per-bucket Cost()
// tables bit for bit.
TEST(PooledMaxErrorParity, MatchesPerBucketCostAcrossLanesAndSimd) {
  const ValuePdfInput input = MovieValuePdf(256, 41);
  for (ErrorMetric metric : {ErrorMetric::kMae, ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    ASSERT_EQ(bundle->kernel, DpKernelKind::kMaxError);
    const std::string name = ErrorMetricName(metric);
    const PerBucketOracle per_bucket(*bundle->oracle);
    const HistogramDpResult baseline =
        SolveMaxDp(per_bucket, 16, DpKernelKind::kReference, 1);

    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
      const std::string label = name + "/lanes=" + std::to_string(lanes);
      HistogramDpResult kernel =
          SolveMaxDp(*bundle->oracle, 16, DpKernelKind::kAuto, lanes);
      EXPECT_EQ(kernel.kernel(), DpKernelKind::kMaxError);
      ExpectBitIdenticalTables(baseline, kernel, label);
      ExpectSameHistograms(baseline, kernel, label);
    }
    ExpectBitIdenticalTables(
        baseline, SolveMaxDp(*bundle->oracle, 16, DpKernelKind::kReference, 4),
        name + "/reference-sweep/lanes=4");
    for (SimdPath path : testing::SupportedSimdPaths()) {
      testing::ScopedSimdPath forced(path);
      ExpectBitIdenticalTables(
          baseline, SolveMaxDp(*bundle->oracle, 16, DpKernelKind::kAuto, 4),
          name + "/simd=" + SimdPathName(path));
    }
  }
}

// n = 1100 spans three parallel column blocks ([0, 512), [512, 1024),
// [1024, 1100)) and three kMax chunk-bound chunks, so the strided lanes
// cross every block and chunk boundary; pooled tables must equal the
// sequential ones bit for bit at every lane count. The fan-out does not
// depend on the filler, so MAE (the faster sweep at this size) covers it.
TEST(PooledMaxErrorParity, CrossesBlockAndChunkBoundaries) {
  SynopsisOptions options;
  options.metric = ErrorMetric::kMae;
  auto bundle = MakeBucketOracle(MovieValuePdf(1100, 43), options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  const HistogramDpResult sequential =
      SolveMaxDp(*bundle->oracle, 8, DpKernelKind::kAuto, 1);
  for (std::size_t lanes : {2u, 4u, 8u}) {
    const std::string label = "MAE/lanes=" + std::to_string(lanes);
    HistogramDpResult pooled =
        SolveMaxDp(*bundle->oracle, 8, DpKernelKind::kAuto, lanes);
    ExpectBitIdenticalTables(sequential, pooled, label);
    ExpectSameHistograms(sequential, pooled, label);
  }
}

TEST(DpKernelParity, TupleSseWorldMeanSweepKernel) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 48, .num_tuples = 120, .max_alternatives = 4,
       .seed = 201});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->kernel, DpKernelKind::kTupleSse);
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    CheckKernelParity(*bundle->oracle, combiner, 48,
                      combiner == DpCombiner::kSum ? "tuple/sum"
                                                   : "tuple/max");
  }
}

// Tie-heavy inputs: constant and block-constant point masses yield large
// zero-cost plateaus, so many (budget, column) cells have many minimizing
// splits — exactly where a pruned/vectorized argmin could legally-looking
// diverge from the reference's first-attaining-split rule.
TEST(DpKernelParity, TieHeavyPlateausBreakTiesIdentically) {
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 96; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1.0 + static_cast<double>(i / 24)));
  }
  ValuePdfInput input(std::move(pdfs));
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sse_variant = SseVariant::kFixedRepresentative;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
      CheckKernelParity(*bundle->oracle, combiner, 96,
                        std::string("plateau/") + ErrorMetricName(metric));
    }
  }
}

// Catastrophic-cancellation regression: near-constant large-magnitude
// frequencies make the computed SSE bucket cost (sum E[g^2] minus a huge
// near-equal square) non-monotone in the split point at the ~1e-4 level
// (amplified by ClampTinyNegative's asymmetric clamp). A raw
// monotone-split bisection returns a wrong argmin here; the bound-verified
// kMax cell must not.
TEST(DpKernelParity, CancellationBreaksMonotonicityButNotParity) {
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> jitter(-1e-3, 1e-3);
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 640; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1e6 + jitter(rng)));
  }
  ValuePdfInput input(std::move(pdfs));
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    for (std::size_t budget : {std::size_t{8}, std::size_t{64}}) {
      CheckKernelParity(*bundle->oracle, combiner, budget,
                        std::string("cancellation/") +
                            (combiner == DpCombiner::kSum ? "sum" : "max") +
                            "/B=" + std::to_string(budget));
    }
  }
}

// A domain larger than the fast kSum cell's chunk (512) exercises the
// cross-chunk minimum bookkeeping, and larger than the parallel path's
// block size exercises multi-block scheduling.
TEST(DpKernelParity, LargeDomainCrossesChunkAndBlockBoundaries) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 1200, .max_support = 3, .max_value = 6, .seed = 301});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    CheckKernelParity(*bundle->oracle, combiner, 12,
                      combiner == DpCombiner::kSum ? "large/sum"
                                                   : "large/max");
  }
}

TEST(DpKernelParity, ExtractedHistogramsMatchReference) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 80, .max_support = 4, .max_value = 7, .seed = 401});
  for (ErrorMetric metric : kAllMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());

    DpKernelOptions reference_options;
    reference_options.kernel = DpKernelKind::kReference;
    HistogramDpResult reference = SolveHistogramDpWithKernel(
        *bundle->oracle, 12, bundle->combiner, reference_options);
    HistogramDpResult kernel =
        SolveHistogramDp(*bundle->oracle, 12, bundle->combiner);
    for (std::size_t b = 1; b <= 12; ++b) {
      Histogram expected = reference.ExtractHistogram(b);
      Histogram actual = kernel.ExtractHistogram(b);
      EXPECT_TRUE(expected == actual)
          << ErrorMetricName(metric) << " B=" << b;
      // Cached representatives must equal fresh oracle calls (what the
      // pre-kernel extraction used to do).
      for (const HistogramBucket& bucket : actual.buckets()) {
        EXPECT_EQ(bucket.representative,
                  bundle->oracle->Cost(bucket.start, bucket.end)
                      .representative)
            << ErrorMetricName(metric) << " B=" << b;
      }
    }
  }
}

TEST(DpKernelSelection, FactoryKnowsEveryKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 16, .seed = 7});
  for (ErrorMetric metric : kAllMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    EXPECT_NE(bundle->kernel, DpKernelKind::kReference)
        << ErrorMetricName(metric) << " should have a specialized kernel";
    EXPECT_EQ(bundle->kernel, SelectDpKernel(*bundle->oracle))
        << ErrorMetricName(metric);
  }
}

// --- Approximate-DP kernel parity: the specialized point-cost kernels must
// reproduce the reference virtual-dispatch solve exactly — histogram
// (boundaries, representatives), cost, per-budget cost curve, and the
// Theorem 5 evaluation count. SAE/SARE have no approximate-DP kernel (their
// oracles select kAbsCumulative, which runs and reports kReference), so for
// them the comparison is reference against reference and holds trivially.

DpKernelKind ApproxKernelRun(DpKernelKind requested) {
  return requested == DpKernelKind::kAbsCumulative ? DpKernelKind::kReference
                                                   : requested;
}

void ExpectSameApproxResult(const ApproxHistogramResult& expected,
                            const ApproxHistogramResult& actual,
                            const std::string& label) {
  EXPECT_TRUE(expected.histogram == actual.histogram) << label;
  EXPECT_EQ(expected.cost, actual.cost) << label;
  EXPECT_EQ(expected.cost_curve, actual.cost_curve) << label;
  EXPECT_EQ(expected.oracle_evaluations, actual.oracle_evaluations) << label;
}

void CheckApproxKernelParity(const BucketCostOracle& oracle,
                             std::size_t max_buckets, double epsilon,
                             const std::string& label) {
  auto reference = SolveApproxHistogramDpWithKernel(
      oracle, max_buckets, epsilon, {.kernel = DpKernelKind::kReference});
  ASSERT_TRUE(reference.ok()) << label << ": " << reference.status();
  EXPECT_EQ(reference->kernel, DpKernelKind::kReference) << label;

  auto kernel = SolveApproxHistogramDp(oracle, max_buckets, epsilon);
  ASSERT_TRUE(kernel.ok()) << label << ": " << kernel.status();
  EXPECT_EQ(kernel->kernel, ApproxKernelRun(SelectDpKernel(oracle))) << label;

  ExpectSameApproxResult(*reference, *kernel, label);
}

constexpr ErrorMetric kCumulativeMetrics[] = {
    ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare};

TEST(ApproxDpKernelParity, CumulativeMetricsAcrossBudgetsAndEps) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 96, .max_support = 4, .max_value = 8, .seed = 501});
  for (ErrorMetric metric : kCumulativeMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    for (std::size_t budget : {std::size_t{1}, std::size_t{8}}) {
      for (double eps : {0.05, 0.5}) {
        CheckApproxKernelParity(*bundle->oracle, budget, eps,
                                std::string(ErrorMetricName(metric)) +
                                    "/B=" + std::to_string(budget));
      }
    }
  }
}

TEST(ApproxDpKernelParity, WeightedZeroStretchesTieHeavy) {
  const std::size_t kDomain = 80;
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = kDomain, .max_support = 4, .max_value = 8, .seed = 502});
  for (ErrorMetric metric : kCumulativeMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    options.sse_variant = SseVariant::kFixedRepresentative;  // weights need it
    // Zero-weight stretches make many candidate buckets cost exactly 0 —
    // tie-heavy territory for the class-boundary and argmin comparisons.
    options.workload.assign(kDomain, 1.0);
    for (std::size_t i = 15; i < 40; ++i) options.workload[i] = 0.0;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    CheckApproxKernelParity(*bundle->oracle, 6, 0.1,
                            std::string("weighted/") +
                                ErrorMetricName(metric));
  }
}

TEST(ApproxDpKernelParity, PlateauInputsAndTupleSse) {
  // Block-constant point masses: zero-cost plateaus everywhere, so the
  // approximate DP's inherit-vs-split ties and the warm abs search's
  // cold-fallback path both get exercised.
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 64; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1.0 + static_cast<double>(i / 16)));
  }
  ValuePdfInput plateau(std::move(pdfs));
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisOptions options;
    options.metric = metric;
    auto bundle = MakeBucketOracle(plateau, options);
    ASSERT_TRUE(bundle.ok());
    CheckApproxKernelParity(*bundle->oracle, 5, 0.2,
                            std::string("plateau/") +
                                ErrorMetricName(metric));
  }

  TuplePdfInput tuples = GenerateRandomTuplePdf(
      {.domain_size = 40, .num_tuples = 90, .max_alternatives = 4,
       .seed = 503});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(tuples, options);
  ASSERT_TRUE(bundle.ok());
  ASSERT_EQ(bundle->kernel, DpKernelKind::kTupleSse);
  CheckApproxKernelParity(*bundle->oracle, 6, 0.1, "tuple-sse");
}

// The approximate DP fans each budget layer's columns out over the pool in
// fixed 64-column blocks. Every kernel, at every pool size and SIMD path,
// must return the sequential (null-pool) solve bit for bit — histogram,
// cost, cost curve, and evaluation count — on a domain smaller than one
// block and on one that ends in a partial block.
TEST(PooledApproxParity, MatchesSequentialAcrossPoolsSimdAndDomains) {
  // The null-pool solve is the sequential baseline; a 0-worker pool runs
  // the fan-out inline, and 1 worker gives 2 lanes, so n = 150 (blocks of
  // 64, 64, 22) hands lane 0 two blocks round-robin.
  ThreadPool pool0(0), pool1(1), pool3(3);
  const std::vector<ThreadPool*> pools = {&pool0, &pool1, &pool3};
  const std::vector<SimdPath> supported = testing::SupportedSimdPaths();
  const SimdPath paths[] = {SimdPath::kScalar, supported.back()};  // native
  for (std::size_t n : {std::size_t{40}, std::size_t{150}}) {
    const ValuePdfInput values = MovieValuePdf(n, 61);
    std::vector<StatusOr<OracleBundle>> bundles;
    for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSsre,
                               ErrorMetric::kSae, ErrorMetric::kMae}) {
      SynopsisOptions options;
      options.metric = metric;
      options.sanity_c = 0.5;
      bundles.push_back(MakeBucketOracle(values, options));
    }
    const TuplePdfInput tuples = GenerateRandomTuplePdf(
        {.domain_size = n, .num_tuples = n, .max_alternatives = 4,
         .seed = 62});
    SynopsisOptions world_mean;
    world_mean.sse_variant = SseVariant::kWorldMean;
    bundles.push_back(MakeBucketOracle(tuples, world_mean));
    for (const auto& bundle : bundles) {
      ASSERT_TRUE(bundle.ok()) << bundle.status();
      for (DpKernelKind kind : {bundle->kernel, DpKernelKind::kReference}) {
        for (SimdPath path : paths) {
          testing::ScopedSimdPath forced(path);
          const std::string base = std::string(DpKernelKindName(kind)) +
                                   "/n=" + std::to_string(n) +
                                   "/simd=" + SimdPathName(path);
          auto sequential = SolveApproxHistogramDpWithKernel(
              *bundle->oracle, 8, 0.1, {.kernel = kind});
          ASSERT_TRUE(sequential.ok()) << base << ": " << sequential.status();
          EXPECT_EQ(sequential->kernel, ApproxKernelRun(kind)) << base;
          for (ThreadPool* p : pools) {
            const std::string label =
                base + "/workers=" + std::to_string(p->num_threads());
            auto pooled = SolveApproxHistogramDpWithKernel(
                *bundle->oracle, 8, 0.1, {.pool = p, .kernel = kind});
            ASSERT_TRUE(pooled.ok()) << label << ": " << pooled.status();
            ExpectSameApproxResult(*sequential, *pooled, label);
          }
        }
      }
    }
  }
}

// --- Warm-started SAE/SARE sweeps. FlatSweep's warm acceptance is
// guaranteed to agree with cold Cost() on convex cost sequences; computed
// costs can split a plateau into several equal-valued pits by rounding, in
// which case the warm sweep may return a different, EQUALLY-OPTIMAL grid
// value (reference-vs-kernel DP parity is immune — both run the same
// sweep). So: optimal cost must always agree (4-ulp bound for the
// plateau-splitting case), and on exact-arithmetic inputs (integer point
// masses) representatives must agree bit-for-bit, cold fallback included.

TEST(AbsWarmSweepParity, CostsMatchColdSearchOnRandomData) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 48, .max_support = 4, .max_value = 8, .seed = 601});
  for (bool relative : {false, true}) {
    AbsCumulativeOracle oracle(input, relative, 1.0);
    const std::size_t n = oracle.domain_size();
    for (std::size_t e = 0; e < n; ++e) {
      AbsCumulativeOracle::FlatSweep sweep(oracle, e);
      for (std::size_t s = e;; --s) {
        BucketCost warm = sweep.Extend();
        BucketCost cold = oracle.Cost(s, e);
        ASSERT_DOUBLE_EQ(warm.cost, cold.cost)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        if (s == 0) break;
      }
    }
  }
}

TEST(AbsWarmSweepParity, BitIdenticalToColdSearchOnExactArithmetic) {
  std::vector<ValuePdf> flat;
  for (std::size_t i = 0; i < 48; ++i) {
    flat.push_back(ValuePdf::PointMass(2.0 + static_cast<double>(i / 12)));
  }
  ValuePdfInput input(std::move(flat));
  for (bool relative : {false, true}) {
    AbsCumulativeOracle oracle(input, relative, 1.0);
    const std::size_t n = oracle.domain_size();
    for (std::size_t e = 0; e < n; ++e) {
      AbsCumulativeOracle::FlatSweep sweep(oracle, e);
      for (std::size_t s = e;; --s) {
        BucketCost warm = sweep.Extend();
        BucketCost cold = oracle.Cost(s, e);
        ASSERT_EQ(warm.cost, cold.cost)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        ASSERT_EQ(warm.representative, cold.representative)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        if (s == 0) break;
      }
    }
  }
}

// --- Wavelet budget-split kernels.

// Compares the fast kernels against the reference scan DIRECTLY (below
// MinBudgetSplit's hybrid size cutoff the dispatcher would route everything
// to the scan, hiding the reduction/bisection paths from coverage).
void CheckSplitAgainstReference(const std::vector<double>& left,
                                const std::vector<double>& right,
                                std::size_t rem, int trial) {
  namespace bsi = budget_split_internal;
  const std::size_t bl_max = std::min(rem, left.size() - 1);
  const std::size_t cap_right = right.size() - 1;
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    BudgetSplit expected = bsi::Reference(combiner, left.data(), bl_max,
                                          right.data(), cap_right, rem);
    BudgetSplit actual =
        combiner == DpCombiner::kSum
            ? bsi::SumFast(left.data(), bl_max, right.data(), cap_right, rem)
            : bsi::MaxFast(left.data(), bl_max, right.data(), cap_right, rem);
    EXPECT_EQ(expected.value, actual.value)
        << "trial " << trial << " rem=" << rem;
    EXPECT_EQ(expected.left_budget, actual.left_budget)
        << "trial " << trial << " rem=" << rem;
    // The hybrid dispatcher must agree with the reference at EVERY size
    // (below the cutoff it runs the scan itself).
    BudgetSplit dispatched =
        MinBudgetSplit(combiner, left.data(), bl_max, right.data(), cap_right,
                       rem, WaveletSplitKernel::kBudgetSplit);
    EXPECT_EQ(expected.value, dispatched.value) << "trial " << trial;
    EXPECT_EQ(expected.left_budget, dispatched.left_budget)
        << "trial " << trial;
  }
}

TEST(MinBudgetSplitTest, FastMatchesReferenceOnMonotoneTables) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> step(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    // Random non-increasing tables, with plateaus (zero steps) common.
    auto make = [&](std::size_t len) {
      std::vector<double> v(len);
      double x = 10.0 + step(rng);
      for (std::size_t i = 0; i < len; ++i) {
        v[i] = x;
        if (rng() % 3 != 0) x -= step(rng);  // ~1/3 of steps are plateaus
      }
      return v;
    };
    const std::size_t llen = 1 + rng() % 90;
    const std::size_t rlen = 1 + rng() % 90;
    std::vector<double> left = make(llen);
    std::vector<double> right = make(rlen);
    for (std::size_t rem : {llen - 1, llen + rlen, std::size_t{0},
                            (llen + rlen) / 2}) {
      CheckSplitAgainstReference(left, right, rem, trial);
    }
  }
}

TEST(MinBudgetSplitTest, ConstantTablesBreakTiesAtFirstSplit) {
  // Fully constant tables are one big plateau: every split ties, and the
  // fast paths must return bl = 0 like the ascending reference scan.
  std::vector<double> left(41, 1.5);
  std::vector<double> right(37, 1.5);
  for (std::size_t rem : {std::size_t{0}, std::size_t{4}, std::size_t{40},
                          std::size_t{76}}) {
    CheckSplitAgainstReference(left, right, rem, -1);
    BudgetSplit split = MinBudgetSplit(
        DpCombiner::kSum, left.data(), std::min(rem, left.size() - 1),
        right.data(), right.size() - 1, rem, WaveletSplitKernel::kAuto);
    EXPECT_EQ(split.left_budget, 0u) << "rem=" << rem;
    EXPECT_EQ(split.value, 3.0) << "rem=" << rem;
  }
}

// Wavelet DP parity: budget-split vs reference must agree bit-for-bit in
// cost and kept coefficients for both coefficient-tree DPs, across all six
// metrics (sum and max combiners) and weighted inputs.
TEST(WaveletSplitKernelParity, RestrictedDpAllMetrics) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 32, .max_support = 3, .max_value = 6, .seed = 701});
  for (ErrorMetric metric : kAllMetrics) {
    for (bool weighted : {false, true}) {
      SynopsisOptions options;
      options.metric = metric;
      options.sanity_c = 0.5;
      if (weighted) {
        options.sse_variant = SseVariant::kFixedRepresentative;
        options.workload.assign(32, 1.0);
        for (std::size_t i = 8; i < 16; ++i) options.workload[i] = 0.0;
        for (std::size_t i = 24; i < 32; ++i) options.workload[i] = 2.0;
      }
      for (std::size_t budget : {std::size_t{1}, std::size_t{7}}) {
        auto reference = BuildRestrictedWaveletDp(
            input, budget, options, 2048, WaveletSplitKernel::kReference);
        ASSERT_TRUE(reference.ok()) << reference.status();
        EXPECT_EQ(reference->kernel, WaveletSplitKernel::kReference);
        auto fast = BuildRestrictedWaveletDp(input, budget, options);
        ASSERT_TRUE(fast.ok()) << fast.status();
        EXPECT_EQ(fast->kernel, WaveletSplitKernel::kBudgetSplit);
        std::string label = std::string(ErrorMetricName(metric)) +
                            (weighted ? "/weighted" : "") +
                            "/B=" + std::to_string(budget);
        EXPECT_EQ(reference->cost, fast->cost) << label;
        EXPECT_EQ(reference->synopsis.coefficients(),
                  fast->synopsis.coefficients()) << label;
      }
    }
  }
}

TEST(WaveletSplitKernelParity, UnrestrictedDpAllMetrics) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 3, .max_value = 5, .seed = 702});
  for (ErrorMetric metric : kAllMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    for (std::size_t budget : {std::size_t{1}, std::size_t{5}}) {
      UnrestrictedWaveletOptions reference_options;
      reference_options.grid_points = 17;
      reference_options.kernel = WaveletSplitKernel::kReference;
      auto reference =
          BuildUnrestrictedWaveletDp(input, budget, options,
                                     reference_options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(reference->kernel, WaveletSplitKernel::kReference);

      UnrestrictedWaveletOptions fast_options;
      fast_options.grid_points = 17;
      auto fast =
          BuildUnrestrictedWaveletDp(input, budget, options, fast_options);
      ASSERT_TRUE(fast.ok()) << fast.status();
      EXPECT_EQ(fast->kernel, WaveletSplitKernel::kBudgetSplit);

      std::string label = std::string(ErrorMetricName(metric)) +
                          "/B=" + std::to_string(budget);
      EXPECT_EQ(reference->cost, fast->cost) << label;
      EXPECT_EQ(reference->synopsis.coefficients(),
                fast->synopsis.coefficients()) << label;
    }
  }
}

// Tie-heavy wavelet input: block-constant frequencies drive whole subtrees
// to identical errors, so budget splits are full of plateaus — the
// bisections' tie-breaks must still match the ascending scan exactly.
TEST(WaveletSplitKernelParity, PlateauInputsBreakTiesIdentically) {
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 32; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1.0 + static_cast<double>(i / 8)));
  }
  ValuePdfInput input(std::move(pdfs));
  for (ErrorMetric metric : {ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    auto reference = BuildRestrictedWaveletDp(input, 6, options, 2048,
                                              WaveletSplitKernel::kReference);
    ASSERT_TRUE(reference.ok());
    auto fast = BuildRestrictedWaveletDp(input, 6, options);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(reference->cost, fast->cost) << ErrorMetricName(metric);
    EXPECT_EQ(reference->synopsis.coefficients(),
              fast->synopsis.coefficients()) << ErrorMetricName(metric);
  }
}

// Budgets past the hybrid cutoff (kSmallBudgetSplit) drive the solvers'
// splits through the reduction/bisection paths end-to-end.
TEST(WaveletSplitKernelParity, LargeBudgetsEngageFastSplitPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 96, .max_support = 3, .max_value = 6, .seed = 703});
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    const std::size_t budget = 48;

    auto restricted_reference = BuildRestrictedWaveletDp(
        input, budget, options, 2048, WaveletSplitKernel::kReference);
    ASSERT_TRUE(restricted_reference.ok());
    auto restricted_fast = BuildRestrictedWaveletDp(input, budget, options);
    ASSERT_TRUE(restricted_fast.ok());
    EXPECT_EQ(restricted_reference->cost, restricted_fast->cost)
        << ErrorMetricName(metric);
    EXPECT_EQ(restricted_reference->synopsis.coefficients(),
              restricted_fast->synopsis.coefficients())
        << ErrorMetricName(metric);

    UnrestrictedWaveletOptions reference_options;
    reference_options.grid_points = 9;
    reference_options.kernel = WaveletSplitKernel::kReference;
    auto unrestricted_reference =
        BuildUnrestrictedWaveletDp(input, budget, options, reference_options);
    ASSERT_TRUE(unrestricted_reference.ok());
    UnrestrictedWaveletOptions fast_options;
    fast_options.grid_points = 9;
    auto unrestricted_fast =
        BuildUnrestrictedWaveletDp(input, budget, options, fast_options);
    ASSERT_TRUE(unrestricted_fast.ok());
    EXPECT_EQ(unrestricted_reference->cost, unrestricted_fast->cost)
        << ErrorMetricName(metric);
    EXPECT_EQ(unrestricted_reference->synopsis.coefficients(),
              unrestricted_fast->synopsis.coefficients())
        << ErrorMetricName(metric);
  }
}

TEST(DpWorkspacePoolTest, LeasesAreExclusiveAndRecycled) {
  DpWorkspacePool pool;
  DpWorkspace* first = nullptr;
  {
    auto lease_a = pool.Acquire();
    auto lease_b = pool.Acquire();
    EXPECT_NE(lease_a.get(), nullptr);
    EXPECT_NE(lease_b.get(), nullptr);
    EXPECT_NE(lease_a.get(), lease_b.get());
    first = lease_a.get();
  }
  // Returned workspaces are handed out again instead of reallocated.
  auto lease_c = pool.Acquire();
  auto lease_d = pool.Acquire();
  EXPECT_TRUE(lease_c.get() == first || lease_d.get() == first);
}

TEST(EngineKernelIntegration, SolverStringRecordsChosenKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 32, .seed = 9});
  SynopsisEngine engine({.parallelism = 1});
  SynopsisRequest request;
  request.kind = SynopsisKind::kHistogram;
  request.method = HistogramMethod::kOptimal;
  request.budget = 4;
  request.options.metric = ErrorMetric::kSse;
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=sse-moment"), std::string::npos)
      << result->solver;

  request.options.metric = ErrorMetric::kMae;
  result = engine.Build(input, request);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->solver.find("kernel=max-error"), std::string::npos)
      << result->solver;
}

// Every DP-backed route — approximate and wavelet included — records the
// kernel that filled its tables, so bench/docs output is never ambiguous
// about which inner loop ran.
TEST(EngineKernelIntegration, ApproxAndWaveletSolverStringsRecordKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 32, .seed = 11});
  SynopsisEngine engine({.parallelism = 1});

  SynopsisRequest approx;
  approx.kind = SynopsisKind::kHistogram;
  approx.method = HistogramMethod::kApprox;
  approx.budget = 4;
  approx.epsilon = 0.1;
  approx.options.metric = ErrorMetric::kSae;
  auto result = engine.Build(input, approx);
  ASSERT_TRUE(result.ok()) << result.status();
  // SAE has no approximate-DP kernel: the route names the reference loop.
  EXPECT_NE(result->solver.find("kernel=reference"), std::string::npos)
      << result->solver;
  EXPECT_NE(result->solver.find(",sequential]"), std::string::npos)
      << result->solver;
  // The approximate DP fans its columns out over the engine pool, and the
  // solver string names the lane count it ran with.
  {
    SynopsisEngine pooled({.parallelism = 4, .min_parallel_domain = 1});
    auto fanned = pooled.Build(input, approx);
    ASSERT_TRUE(fanned.ok()) << fanned.status();
    EXPECT_NE(fanned->solver.find(",parallel=4]"), std::string::npos)
        << fanned->solver;
    EXPECT_TRUE(fanned->histogram == result->histogram);
    EXPECT_EQ(fanned->cost, result->cost);
  }

  SynopsisRequest restricted;
  restricted.kind = SynopsisKind::kWavelet;
  restricted.wavelet_method = WaveletMethod::kRestrictedDp;
  restricted.budget = 4;
  restricted.options.metric = ErrorMetric::kMae;
  result = engine.Build(input, restricted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=budget-split"), std::string::npos)
      << result->solver;

  SynopsisRequest unrestricted = restricted;
  unrestricted.wavelet_method = WaveletMethod::kUnrestrictedDp;
  unrestricted.unrestricted.grid_points = 9;
  result = engine.Build(input, unrestricted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=budget-split"), std::string::npos)
      << result->solver;
  // Forcing the reference split kernel must be visible, not omitted.
  unrestricted.unrestricted.kernel = WaveletSplitKernel::kReference;
  result = engine.Build(input, unrestricted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=reference"), std::string::npos)
      << result->solver;
}

// Batches mixing MAE and MARE share one PointErrorTables build; repeated
// batches reuse the engine's leased workspace. Neither may change answers.
TEST(EngineKernelIntegration, RepeatedMixedBatchesStayBitIdentical) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 40, .seed = 15});
  SynopsisEngine engine({.parallelism = 1});
  std::vector<SynopsisRequest> requests;
  for (ErrorMetric metric : {ErrorMetric::kMae, ErrorMetric::kMare,
                             ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisRequest request;
    request.kind = SynopsisKind::kHistogram;
    request.method = HistogramMethod::kOptimal;
    request.budget = 6;
    request.options.metric = metric;
    request.options.sanity_c = 1.0;
    requests.push_back(request);
  }
  auto first = engine.BuildBatch(input, requests);
  ASSERT_TRUE(first.ok()) << first.status();
  // Second run reuses the leased workspace (and the fresh tables cache).
  auto second = engine.BuildBatch(input, requests);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].cost, (*second)[i].cost) << i;
    EXPECT_TRUE((*first)[i].histogram == (*second)[i].histogram) << i;
  }
  // And both equal the direct solver.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto bundle = MakeBucketOracle(input, requests[i].options);
    ASSERT_TRUE(bundle.ok());
    HistogramDpResult dp =
        SolveHistogramDp(*bundle->oracle, 6, bundle->combiner);
    EXPECT_EQ((*first)[i].cost, dp.OptimalCost(6)) << i;
    EXPECT_TRUE((*first)[i].histogram == dp.ExtractHistogram(6)) << i;
  }
}

}  // namespace
}  // namespace probsyn
