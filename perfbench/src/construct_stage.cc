// Construct stage: one round is a fixed sequence of seven calls into the
// engine, each under its own span.
//   (a) BuildBatch: exact SSE (fixed representative), B in {8..256} — one
//       shared DP
//   (b) exact SARE, c = 0.5, B = 64
//   (c) approximate SSE, eps = 0.1, B = 64, sharding off
//   (d) sharded exact SSE, S = 16, B = 64
//   (e) kStreaming SSE, B = 32, eps = 0.1 (one Push per item)
//   (f) BuildBatch: restricted-DP MAE wavelet B = 64 + greedy SSE wavelet
//       B = 64
//   (g) exact MAE, B = 16
// Full size: n = 4096 for (a)-(e), 1024 for (f), 256 for (g); light size:
// 1024, 256 and 128.

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "core/evaluate.h"
#include "stages.h"

namespace perfbench {
namespace {

using probsyn::ErrorMetric;
using probsyn::HistogramMethod;
using probsyn::RequestSharding;
using probsyn::SynopsisKind;
using probsyn::SynopsisOptions;
using probsyn::SynopsisRequest;
using probsyn::SynopsisResult;
using probsyn::WaveletMethod;

constexpr double kEpsilon = 0.1;
constexpr std::size_t kShards = 16;
// Documented contract of the sharded route (engine/synopsis_engine.h).
constexpr double kShardedBound = 1.5;

SynopsisOptions Options(ErrorMetric metric, double sanity_c = 1.0) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = sanity_c;
  options.sse_variant = probsyn::SseVariant::kFixedRepresentative;
  return options;
}

SynopsisRequest HistogramRequest(std::size_t budget, SynopsisOptions options,
                                 HistogramMethod method) {
  SynopsisRequest request;
  request.kind = SynopsisKind::kHistogram;
  request.budget = budget;
  request.options = std::move(options);
  request.method = method;
  request.epsilon = kEpsilon;
  request.sharding.mode = RequestSharding::Mode::kOff;
  return request;
}

SynopsisRequest WaveletRequest(std::size_t budget, ErrorMetric metric,
                               WaveletMethod method) {
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.budget = budget;
  request.options = Options(metric);
  request.wavelet_method = method;
  return request;
}

// Sums SynopsisTiming over a batch, counting a phase shared by requests of
// one oracle group once (each result reports the full shared time).
void AddTiming(const std::vector<SynopsisRequest>& requests,
               const std::vector<SynopsisResult>& results, double& preprocess,
               double& solve) {
  std::map<std::tuple<int, int, double>, std::pair<double, double>> groups;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SynopsisRequest& request = requests[i];
    const auto key = std::make_tuple(static_cast<int>(request.kind),
                                     static_cast<int>(request.options.metric),
                                     request.options.sanity_c);
    auto& [pre, sol] = groups[key];
    pre = std::max(pre, results[i].timing.preprocess_seconds);
    sol = std::max(sol, results[i].timing.solve_seconds);
  }
  for (const auto& [key, times] : groups) {
    preprocess += times.first;
    solve += times.second;
  }
}

bool CostMatches(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace

ConstructStage::ConstructStage(bool full, std::uint64_t seed)
    : engine_(probsyn::SynopsisEngine::Options{.parallelism = kLanes}),
      main_(MovieInput(full ? 4096 : 1024, SubSeed(seed, 1))),
      wavelet_(MovieInput(full ? 1024 : 256, SubSeed(seed, 2))),
      mae_(MovieInput(full ? 256 : 128, SubSeed(seed, 3))) {}

void ConstructStage::Round(StageContext& ctx, EndToEnd& out) const {
  const probsyn::SynopsisEngine& engine = engine_;
  Ledger& ledger = ctx.ledger;
  double build_s = 0.0;
  double preprocess_s = 0.0;
  double solve_s = 0.0;
  // Runs one call under its span; only the call itself counts toward the
  // round's build time (answer checks run outside it).
  auto timed = [&](const char* span, auto&& call) {
    Tracer::Scope scope(ctx.tracer, span, /*pool=*/true);
    const auto start = Clock::now();
    auto result = call();
    build_s += SecondsBetween(start, Clock::now());
    return result;
  };
  // Checks an exact route's cost against the analytic evaluator.
  auto check_exact = [&](const probsyn::ValuePdfInput& input,
                         const SynopsisResult& r, const SynopsisOptions& o,
                         const char* what) {
    auto cost = r.kind == SynopsisKind::kHistogram
                    ? probsyn::EvaluateHistogram(input, r.histogram, o)
                    : probsyn::EvaluateWavelet(input, r.wavelet, o);
    ledger.Check(cost.ok() && CostMatches(r.cost, *cost),
                 std::string(what) + ": cost differs from the evaluator");
  };
  // Checks an approximate route's cost ratio against its contract.
  auto check_ratio = [&](double cost, double optimum, double bound,
                         const char* what) {
    const double ratio = cost / optimum;
    out.cost_ratio_max = std::max(out.cost_ratio_max, ratio);
    ledger.Check(ratio >= 1.0 - 1e-12 && ratio <= bound + 1e-12,
                 std::string(what) + ": cost ratio " + std::to_string(ratio) +
                     " outside [1, " + std::to_string(bound) + "]");
  };

  const SynopsisOptions sse = Options(ErrorMetric::kSse);
  std::vector<SynopsisRequest> curve;
  for (std::size_t budget : {8, 16, 32, 64, 128, 256}) {
    curve.push_back(HistogramRequest(budget, sse, HistogramMethod::kOptimal));
  }
  auto a = timed("core.exact_dp.sse",
                 [&] { return engine.BuildBatch(main_, curve); });

  const SynopsisRequest sare_request = HistogramRequest(
      64, Options(ErrorMetric::kSare, 0.5), HistogramMethod::kOptimal);
  auto b = timed("core.exact_dp.sare",
                 [&] { return engine.Build(main_, sare_request); });

  const SynopsisRequest approx_request =
      HistogramRequest(64, sse, HistogramMethod::kApprox);
  auto c = timed("core.approx_dp",
                 [&] { return engine.Build(main_, approx_request); });

  SynopsisRequest sharded_request =
      HistogramRequest(64, sse, HistogramMethod::kOptimal);
  sharded_request.sharding.mode = RequestSharding::Mode::kOn;
  sharded_request.sharding.shards = kShards;
  auto d = timed("core.sharded_dp",
                 [&] { return engine.Build(main_, sharded_request); });

  const SynopsisRequest streaming_request =
      HistogramRequest(32, sse, HistogramMethod::kStreaming);
  auto e = timed("stream.push",
                 [&] { return engine.Build(main_, streaming_request); });

  const std::vector<SynopsisRequest> wavelets = {
      WaveletRequest(64, ErrorMetric::kMae, WaveletMethod::kRestrictedDp),
      WaveletRequest(64, ErrorMetric::kSse, WaveletMethod::kGreedySse)};
  auto f = timed("core.wavelet_dp",
                 [&] { return engine.BuildBatch(wavelet_, wavelets); });

  const SynopsisRequest mae_request = HistogramRequest(
      16, Options(ErrorMetric::kMae), HistogramMethod::kOptimal);
  auto g = timed("core.exact_dp.mae",
                 [&] { return engine.Build(mae_, mae_request); });

  out.build_s.push_back(build_s);

  // Answer checks.
  const bool curve_ok =
      ledger.CheckStatus(a.status(), "construct (a) exact SSE batch");
  if (curve_ok) {
    for (const SynopsisResult& r : *a) {
      check_exact(main_, r, sse, "construct (a)");
    }
    AddTiming(curve, *a, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(b.status(), "construct (b) exact SARE")) {
    check_exact(main_, *b, sare_request.options, "construct (b)");
    AddTiming({sare_request}, {*b}, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(c.status(), "construct (c) approx SSE")) {
    if (curve_ok) {
      check_ratio(c->cost, (*a)[3].cost, 1.0 + kEpsilon, "construct (c)");
    }
    AddTiming({approx_request}, {*c}, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(d.status(), "construct (d) sharded SSE")) {
    if (curve_ok) {
      check_ratio(d->cost, (*a)[3].cost, kShardedBound, "construct (d)");
    }
    AddTiming({sharded_request}, {*d}, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(e.status(), "construct (e) streaming SSE")) {
    if (curve_ok) {
      check_ratio(e->cost, (*a)[2].cost, 1.0 + kEpsilon, "construct (e)");
    }
    AddTiming({streaming_request}, {*e}, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(f.status(), "construct (f) wavelet batch")) {
    for (std::size_t i = 0; i < wavelets.size(); ++i) {
      check_exact(wavelet_, (*f)[i], wavelets[i].options, "construct (f)");
    }
    AddTiming(wavelets, *f, preprocess_s, solve_s);
  }
  if (ledger.CheckStatus(g.status(), "construct (g) exact MAE")) {
    check_exact(mae_, *g, mae_request.options, "construct (g)");
    AddTiming({mae_request}, {*g}, preprocess_s, solve_s);
  }
  const auto pool = engine.workspace_pool_stats();
  ledger.Check(pool.outstanding == 0,
               "construct: workspace leases outstanding");

  if (ctx.tracer.enabled()) {
    ctx.layer["engine.preprocess_s"].push_back(preprocess_s);
    ctx.layer["engine.solve_s"].push_back(solve_s);
    ctx.layer["engine.workspaces_created"].push_back(
        static_cast<double>(pool.created));
    if (c.ok()) {
      ctx.layer["core.approx_dp.oracle_evaluations"].push_back(
          static_cast<double>(c->oracle_evaluations));
    }
  }
}

}  // namespace perfbench
