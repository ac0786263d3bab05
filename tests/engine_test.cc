// Engine parity: the SynopsisEngine facade must serve every construction
// path with output bit-identical (costs AND boundaries/coefficients) to
// calling the underlying solver directly, sequentially. This pins down the
// tentpole guarantee that the engine adds routing, sharing, parallelism,
// and timing — never a different answer.

#include "engine/synopsis_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/builders.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "gen/generators.h"
#include "stream/streaming_histogram.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse,  ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae,  ErrorMetric::kMare};

SynopsisOptions OptionsFor(ErrorMetric metric) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = 0.5;
  return options;
}

ValuePdfInput TestValuePdf() {
  return GenerateRandomValuePdf({.domain_size = 48, .seed = 11});
}

TuplePdfInput TestTuplePdf() {
  return GenerateRandomTuplePdf({.domain_size = 40, .seed = 13});
}

// A parallel engine whose pool is engaged even on tiny test domains.
SynopsisEngine ParallelEngine() {
  return SynopsisEngine({.parallelism = 4, .min_parallel_domain = 1});
}

// --- Exact route: engine output == direct DP, for every metric x model. --

template <typename Input>
void CheckExactParity(const Input& input, ErrorMetric metric) {
  SynopsisOptions options = OptionsFor(metric);
  const std::size_t kBuckets = 6;

  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  HistogramDpResult dp =
      SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner);
  Histogram expected = dp.ExtractHistogram(kBuckets);
  double expected_cost = dp.OptimalCost(kBuckets);

  SynopsisRequest request;
  request.kind = SynopsisKind::kHistogram;
  request.method = HistogramMethod::kOptimal;
  request.budget = kBuckets;
  request.options = options;

  for (bool parallel : {false, true}) {
    SynopsisEngine engine =
        parallel ? ParallelEngine()
                 : SynopsisEngine(SynopsisEngine::Options{.parallelism = 1});
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->kind, SynopsisKind::kHistogram);
    EXPECT_EQ(result->cost, expected_cost)
        << ErrorMetricName(metric) << " parallel=" << parallel;
    EXPECT_TRUE(result->histogram == expected)
        << ErrorMetricName(metric) << " parallel=" << parallel;
  }
}

TEST(EngineParity, ExactHistogramValuePdfAllMetrics) {
  ValuePdfInput input = TestValuePdf();
  for (ErrorMetric metric : kAllMetrics) CheckExactParity(input, metric);
}

TEST(EngineParity, ExactHistogramTuplePdfAllMetrics) {
  TuplePdfInput input = TestTuplePdf();
  for (ErrorMetric metric : kAllMetrics) CheckExactParity(input, metric);
}

TEST(EngineParity, ExactHistogramBothSseVariants) {
  ValuePdfInput value_input = TestValuePdf();
  TuplePdfInput tuple_input = TestTuplePdf();
  for (SseVariant variant :
       {SseVariant::kWorldMean, SseVariant::kFixedRepresentative}) {
    SynopsisOptions options = OptionsFor(ErrorMetric::kSse);
    options.sse_variant = variant;
    SynopsisRequest request;
    request.budget = 5;
    request.options = options;

    SynopsisEngine engine = ParallelEngine();
    auto via_engine = engine.Build(tuple_input, request);
    ASSERT_TRUE(via_engine.ok()) << via_engine.status();
    auto direct = BuildOptimalHistogram(tuple_input, options, 5);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(via_engine->histogram == *direct);

    auto via_engine_v = engine.Build(value_input, request);
    ASSERT_TRUE(via_engine_v.ok()) << via_engine_v.status();
    auto direct_v = BuildOptimalHistogram(value_input, options, 5);
    ASSERT_TRUE(direct_v.ok());
    EXPECT_TRUE(via_engine_v->histogram == *direct_v);
  }
}

// --- Parallel DP == sequential DP, bit-identical, across block seams. ----

TEST(ParallelDp, MatchesSequentialAcrossMetricsAndBudgets) {
  // n > 256 exercises multiple column blocks of the parallel solver.
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 300, .seed = 7});
  ThreadPool pool(3);
  const std::size_t kBuckets = 10;
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options = OptionsFor(metric);
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    HistogramDpResult sequential =
        SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner);
    HistogramDpResult parallel =
        SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner, &pool);
    for (std::size_t b = 1; b <= kBuckets; ++b) {
      EXPECT_EQ(parallel.OptimalCost(b), sequential.OptimalCost(b))
          << ErrorMetricName(metric) << " B=" << b;
      EXPECT_TRUE(parallel.ExtractHistogram(b) == sequential.ExtractHistogram(b))
          << ErrorMetricName(metric) << " B=" << b;
    }
  }
}

TEST(ParallelDp, MatchesSequentialOnTupleSweepOracle) {
  // The exact tuple-pdf world-mean SSE oracle is the stateful-sweep one;
  // the parallel solver must drive one independent sweep per column.
  TuplePdfInput input = GenerateRandomTuplePdf({.domain_size = 64, .seed = 3});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  ThreadPool pool(4);
  HistogramDpResult sequential =
      SolveHistogramDp(*bundle->oracle, 8, bundle->combiner);
  HistogramDpResult parallel =
      SolveHistogramDp(*bundle->oracle, 8, bundle->combiner, &pool);
  for (std::size_t b = 1; b <= 8; ++b) {
    EXPECT_EQ(parallel.OptimalCost(b), sequential.OptimalCost(b)) << b;
    EXPECT_TRUE(parallel.ExtractHistogram(b) == sequential.ExtractHistogram(b));
  }
}

TEST(ParallelDp, ParallelOraclePreprocessingIsIdentical) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 96, .seed = 21});
  ThreadPool pool(3);
  for (ErrorMetric metric : {ErrorMetric::kSae, ErrorMetric::kSare,
                             ErrorMetric::kMae, ErrorMetric::kMare}) {
    SynopsisOptions options = OptionsFor(metric);
    auto plain = MakeBucketOracle(input, options);
    auto pooled = MakeBucketOracle(input, options, &pool);
    ASSERT_TRUE(plain.ok() && pooled.ok());
    for (std::size_t s = 0; s < input.domain_size(); s += 7) {
      for (std::size_t e = s; e < input.domain_size(); e += 5) {
        BucketCost a = plain->oracle->Cost(s, e);
        BucketCost b = pooled->oracle->Cost(s, e);
        EXPECT_EQ(a.cost, b.cost) << ErrorMetricName(metric);
        EXPECT_EQ(a.representative, b.representative);
      }
    }
  }
}

// --- Approximate route. --------------------------------------------------

TEST(EngineParity, ApproxHistogramMatchesDirectSolver) {
  ValuePdfInput input = TestValuePdf();
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisOptions options = OptionsFor(metric);
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    auto direct = SolveApproxHistogramDp(*bundle->oracle, 6, 0.25);
    ASSERT_TRUE(direct.ok()) << direct.status();

    SynopsisRequest request;
    request.method = HistogramMethod::kApprox;
    request.budget = 6;
    request.epsilon = 0.25;
    request.options = options;
    SynopsisEngine engine = ParallelEngine();
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->histogram == direct->histogram);
    EXPECT_EQ(result->oracle_evaluations, direct->oracle_evaluations);
  }
}

// --- Streaming route. ----------------------------------------------------

TEST(EngineParity, StreamingHistogramMatchesDirectBuilder) {
  ValuePdfInput input = TestValuePdf();
  StreamingHistogramBuilder direct(5, 0.2);
  for (const ValuePdf& pdf : input.items()) direct.Push(pdf);
  auto finished = direct.Finish();
  ASSERT_TRUE(finished.ok());

  SynopsisRequest request;
  request.method = HistogramMethod::kStreaming;
  request.budget = 5;
  request.epsilon = 0.2;
  request.options.metric = ErrorMetric::kSse;
  request.options.sse_variant = SseVariant::kFixedRepresentative;
  SynopsisEngine engine;
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cost, finished->cost);
  EXPECT_TRUE(result->histogram == finished->histogram);
}

// The engine feeds the stream through PushBatch in fixed blocks; on a
// domain that ends in a partial block (and a partial kBatchWidth group) the
// result must still equal one Push per item bit for bit.
TEST(EngineParity, BatchedStreamingRouteMatchesLoopedPush) {
  const std::size_t kDomain = 1000;
  ASSERT_NE(kDomain % StreamingHistogramBuilder::kBatchWidth, 0u);
  ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = kDomain, .seed = 71});
  StreamingHistogramBuilder direct(32, 0.1);
  for (const ValuePdf& pdf : input.items()) direct.Push(pdf);
  auto finished = direct.Finish();
  ASSERT_TRUE(finished.ok());

  SynopsisRequest request;
  request.method = HistogramMethod::kStreaming;
  request.budget = 32;
  request.epsilon = 0.1;
  request.options.sse_variant = SseVariant::kFixedRepresentative;
  SynopsisEngine engine;
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cost, finished->cost);
  EXPECT_TRUE(result->histogram == finished->histogram);
}

// --- Wavelet routes. -----------------------------------------------------

TEST(EngineParity, WaveletRoutesMatchDirectSolvers) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 16, .seed = 9});
  SynopsisEngine engine;

  // Greedy SSE (Theorem 7).
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 4;
    request.wavelet_method = WaveletMethod::kGreedySse;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildSseOptimalWavelet(input, 4);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(result->wavelet == *direct);
  }

  // Restricted DP (Theorem 8), non-SSE metric, selected by kAuto.
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 4;
    request.options = OptionsFor(ErrorMetric::kSae);
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildRestrictedWaveletDp(input, 4, request.options);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->wavelet == direct->synopsis);
  }

  // Unrestricted DP.
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 3;
    request.options = OptionsFor(ErrorMetric::kMae);
    request.wavelet_method = WaveletMethod::kUnrestrictedDp;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildUnrestrictedWaveletDp(input, 3, request.options,
                                             request.unrestricted);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->wavelet == direct->synopsis);
  }
}

// --- Batch semantics. ----------------------------------------------------

TEST(EngineBatch, BatchResultsMatchIndividualBuilds) {
  ValuePdfInput input = TestValuePdf();
  SynopsisEngine engine = ParallelEngine();

  std::vector<SynopsisRequest> requests;
  for (std::size_t budget : {2, 4, 8}) {  // one shared SSE oracle + DP
    SynopsisRequest r;
    r.budget = budget;
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // different metric -> second oracle group
    r.budget = 4;
    r.options = OptionsFor(ErrorMetric::kMae);
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // approx rider on the SSE group's oracle
    r.budget = 4;
    r.method = HistogramMethod::kApprox;
    r.epsilon = 0.5;
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // wavelet single
    r.kind = SynopsisKind::kWavelet;
    r.budget = 5;
    requests.push_back(r);
  }

  auto batch = engine.BuildBatch(input, requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto single = engine.Build(input, requests[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ((*batch)[i].cost, single->cost) << "request " << i;
    EXPECT_TRUE((*batch)[i].histogram == single->histogram) << "request " << i;
    EXPECT_TRUE((*batch)[i].wavelet == single->wavelet) << "request " << i;
  }
}

TEST(EngineBatch, BaselineMethodsProduceValidHistograms) {
  TuplePdfInput input = TestTuplePdf();
  SynopsisEngine engine;
  for (HistogramMethod method :
       {HistogramMethod::kExpectation, HistogramMethod::kSampledWorld,
        HistogramMethod::kEquiDepth}) {
    SynopsisRequest request;
    request.method = method;
    request.budget = 4;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok())
        << HistogramMethodName(method) << ": " << result.status();
    EXPECT_TRUE(result->histogram.Validate(input.domain_size()).ok());
    EXPECT_GE(result->cost, 0.0);
    EXPECT_LE(result->histogram.num_buckets(), 4u);
  }
}

// --- Error paths. --------------------------------------------------------

TEST(EngineErrors, RejectsInvalidRequests) {
  ValuePdfInput input = TestValuePdf();
  SynopsisEngine engine;

  SynopsisRequest zero_budget;
  zero_budget.budget = 0;
  EXPECT_EQ(engine.Build(input, zero_budget).status().code(),
            StatusCode::kInvalidArgument);

  SynopsisRequest approx_max;
  approx_max.method = HistogramMethod::kApprox;
  approx_max.budget = 4;
  approx_max.options = OptionsFor(ErrorMetric::kMae);
  EXPECT_EQ(engine.Build(input, approx_max).status().code(),
            StatusCode::kUnimplemented);

  SynopsisRequest streaming_sae;
  streaming_sae.method = HistogramMethod::kStreaming;
  streaming_sae.budget = 4;
  streaming_sae.options = OptionsFor(ErrorMetric::kSae);
  EXPECT_EQ(engine.Build(input, streaming_sae).status().code(),
            StatusCode::kUnimplemented);

  SynopsisRequest bad_epsilon;
  bad_epsilon.method = HistogramMethod::kApprox;
  bad_epsilon.budget = 4;
  bad_epsilon.epsilon = 0.0;
  EXPECT_EQ(engine.Build(input, bad_epsilon).status().code(),
            StatusCode::kInvalidArgument);

  ValuePdfInput empty{std::vector<ValuePdf>{}};
  SynopsisRequest ok_request;
  ok_request.budget = 2;
  EXPECT_EQ(engine.Build(empty, ok_request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, MethodNamesRoundTrip) {
  for (HistogramMethod m :
       {HistogramMethod::kOptimal, HistogramMethod::kApprox,
        HistogramMethod::kStreaming, HistogramMethod::kExpectation,
        HistogramMethod::kSampledWorld, HistogramMethod::kEquiDepth}) {
    auto parsed = ParseHistogramMethod(HistogramMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  for (WaveletMethod m :
       {WaveletMethod::kAuto, WaveletMethod::kGreedySse,
        WaveletMethod::kRestrictedDp, WaveletMethod::kUnrestrictedDp}) {
    auto parsed = ParseWaveletMethod(WaveletMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseHistogramMethod("nope").ok());
  EXPECT_FALSE(ParseWaveletMethod("nope").ok());
}

}  // namespace
}  // namespace probsyn
