// Serve stage: set-up writes one store of equi-depth histograms and greedy
// wavelets (budgets log-spaced from 64 up); each round re-opens it with
// SynopsisServer::Open (the query tier's cold start; twice at full size and
// eight times light, each open timed on its own) and runs a closed loop
// of four readers, each waiting for its answer before asking again. Every
// reader sends the same mix through the name-keyed SynopsisServer API:
// ~75% point, ~20% range-sum (widths 1..2048) and ~5% top-k (k 1..32,
// wavelets only), over Zipf-skewed names, 150000 queries per reader per
// round. Full size: 256 entries over n = 2^16; light size: 64 entries over
// n = 8192.
//
// The traced run resolves each name with SynopsisServer::Find and queries
// the ServedSynopsis handle, timing the two calls apart; per-query times
// are summed per reader instead of kept as spans.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <numeric>
#include <thread>

#include "core/baselines.h"
#include "serve/synopsis_server.h"
#include "stages.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using probsyn::ServedSynopsis;
using probsyn::SynopsisServer;
using probsyn::WaveletCoefficient;

constexpr std::size_t kReaders = 4;
// At both sizes: with fewer, a light stage's latency figures covered too few
// seconds of a run to hold steady across runs.
constexpr std::size_t kQueriesPerReader = 150000;
constexpr std::size_t kSampleEvery = 256;  // answers kept for checking
constexpr std::size_t kMaxRangeWidth = 2048;
constexpr std::size_t kMaxTopK = 32;
constexpr std::uint64_t kPopularitySeed = 0x5eed;

enum Kind : int { kPoint = 0, kRange = 1, kTopK = 2 };

struct Query {
  Kind kind = kPoint;
  std::size_t id = 0;  // index into the stage's names
  std::size_t a = 0;   // point index, range start, or k
  std::size_t b = 0;   // range end
};

struct Sample {
  Query query;
  double value = 0.0;
  std::vector<WaveletCoefficient> top;
};

// Per-reader sums of the traced run's split timings.
struct CallTimes {
  double ns[5] = {};  // find, point (histogram), point (wavelet), range, top-k
  double calls[5] = {};
};
enum Call : int {
  kFind = 0,
  kPointHistogram,
  kPointWavelet,
  kRangeCall,
  kTopKCall,
};

struct Reader {
  std::vector<double> latency_ns;
  std::vector<Sample> samples;
  std::size_t failures = 0;
  std::size_t per_kind[3] = {};
  CallTimes times;
};

std::size_t Pick(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u * cdf.back());
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

// Zipf(1) popularity over `count` items in a seeded random rank order;
// returns the per-item cumulative weights.
std::vector<double> ZipfCdf(std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> rank(count);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  probsyn::Rng rng(seed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.NextBounded(i)]);
  }
  std::vector<double> cdf(count);
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    total += 1.0 / static_cast<double>(rank[i] + 1);
    cdf[i] = total;
  }
  return cdf;
}

double Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// The coefficients by |value| descending, index-ascending ties: the order
// ServedSynopsis::TopCoefficients promises.
std::vector<WaveletCoefficient> RankByMagnitude(
    const probsyn::WaveletSynopsis& w) {
  std::vector<WaveletCoefficient> ranked = w.coefficients();
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& x, const auto& y) {
                     return std::fabs(x.value) > std::fabs(y.value);
                   });
  return ranked;
}

}  // namespace

ServeStage::ServeStage(bool full, std::uint64_t seed, StageContext& ctx)
    : engine_(probsyn::SynopsisEngine::Options{.parallelism = kLanes}),
      domain_(full ? std::size_t{1} << 16 : 8192),
      opens_per_round_(full ? 2 : 8),
      seed_(seed),
      path_(ctx.scratch_dir + "/serve-" + std::to_string(getpid()) +
            ".synstore") {
  const std::size_t entries = full ? 256 : 64;
  const probsyn::ValuePdfInput input = MovieInput(domain_, SubSeed(seed, 200));
  const std::vector<double> expected = probsyn::ExpectationFrequencies(input);
  probsyn::SynopsisOptions options;
  options.sse_variant = probsyn::SseVariant::kFixedRepresentative;
  const std::size_t pairs = entries / 2;
  const double max_budget =
      static_cast<double>(std::min<std::size_t>(4096, domain_ / 4));
  // The synopses come straight from the core builders: what they cost to
  // make is not what this stage measures.
  for (std::size_t j = 0; j < pairs; ++j) {
    const double t = static_cast<double>(j) / static_cast<double>(pairs - 1);
    const auto budget = static_cast<std::size_t>(
        std::lround(64.0 * std::pow(max_budget / 64.0, t)));
    auto histogram = probsyn::BuildEquiDepthHistogram(input, options, budget);
    PROBSYN_CHECK(
        ctx.ledger.CheckStatus(histogram.status(), "serve: equi-depth"));
    probsyn::SynopsisResult h;
    h.kind = probsyn::SynopsisKind::kHistogram;
    h.histogram = std::move(histogram).value();
    built_.push_back(std::move(h));
    names_.push_back("h" + std::to_string(j));
    probsyn::SynopsisResult w;
    w.kind = probsyn::SynopsisKind::kWavelet;
    w.wavelet = probsyn::BuildSseWaveletFromFrequencies(expected, budget);
    built_.push_back(std::move(w));
    names_.push_back("w" + std::to_string(j));
    wavelet_ids_.push_back(names_.size() - 1);
    ctx.ledger.Ok();
  }
  ranked_.resize(built_.size());
  for (std::size_t id : wavelet_ids_) {
    ranked_[id] = RankByMagnitude(built_[id].wavelet);
  }
  std::vector<probsyn::NamedSynopsis> named;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    named.push_back({names_[i], built_[i]});
  }
  PROBSYN_CHECK(ctx.ledger.CheckStatus(engine_.Store(path_, named),
                                       "serve: Store"));
  // Which synopses are hot is part of the workload's shape, not of its
  // seed: a seeded order would swing the mix between 64- and 4096-term
  // synopses from one seed to the next.
  name_cdf_ = ZipfCdf(names_.size(), kPopularitySeed);
  wavelet_cdf_ = ZipfCdf(wavelet_ids_.size(), kPopularitySeed);
}

ServeStage::~ServeStage() { std::remove(path_.c_str()); }

void ServeStage::Round(StageContext& ctx, EndToEnd& out, int round) {
  Ledger& ledger = ctx.ledger;
  Tracer& tracer = ctx.tracer;
  const bool traced = tracer.enabled();

  // Every open but the last is dropped before the next starts; the last
  // one serves the round's queries.
  probsyn::StatusOr<SynopsisServer> opened = probsyn::Status::Internal("unset");
  for (std::size_t k = 0; k < opens_per_round_; ++k) {
    opened = probsyn::Status::Internal("unset");
    const auto open_start = Clock::now();
    if (traced) {
      probsyn::StatusOr<probsyn::SynopsisStore> store =
          probsyn::Status::Internal("unset");
      {
        Tracer::Scope scope(tracer, "serve.store_open");
        store = probsyn::SynopsisStore::Open(path_);
      }
      if (!ledger.CheckStatus(store.status(), "serve: store open")) return;
      Tracer::Scope scope(tracer, "serve.decode");
      opened = SynopsisServer::FromStore(std::move(store).value());
    } else {
      opened = SynopsisServer::Open(path_);
    }
    const double open_s = SecondsBetween(open_start, Clock::now());
    if (!ledger.CheckStatus(opened.status(), "serve: Open")) return;
    ledger.Check(opened->size() == names_.size(), "serve: entry count");
    out.open_s.push_back(open_s);
  }
  const SynopsisServer& server = *opened;
  out.store_bytes_per_entry =
      static_cast<double>(server.store().data().size()) /
      static_cast<double>(server.size());

  auto draw = [&](probsyn::Rng& rng) {
    Query q;
    const double u = rng.NextDouble();
    q.kind = u < 0.75 ? kPoint : (u < 0.95 ? kRange : kTopK);
    if (q.kind == kTopK) {
      q.id = wavelet_ids_[Pick(wavelet_cdf_, rng.NextDouble())];
      q.a = 1 + rng.NextBounded(kMaxTopK);
    } else {
      q.id = Pick(name_cdf_, rng.NextDouble());
      q.a = rng.NextBounded(domain_);
      q.b = std::min(domain_ - 1, q.a + rng.NextBounded(kMaxRangeWidth));
    }
    return q;
  };

  // One reader's closed loop; kTraced splits each query into Find plus the
  // handle call.
  auto run_reader = [&]<bool kTraced>(std::size_t r, Reader& reader) {
    probsyn::Rng rng(
        SubSeed(seed_, 1000 + 64 * static_cast<std::uint64_t>(round) + r));
    for (std::size_t n = 0; n < kQueriesPerReader; ++n) {
      const Query q = draw(rng);
      const std::string& name = names_[q.id];
      bool ok = true;
      double value = 0.0;
      std::vector<WaveletCoefficient> top;
      const auto start = Clock::now();
      if constexpr (!kTraced) {
        if (q.kind == kPoint) {
          auto v = server.PointEstimate(name, q.a);
          ok = v.ok();
          if (ok) value = *v;
        } else if (q.kind == kRange) {
          auto v = server.RangeSum(name, q.a, q.b);
          ok = v.ok();
          if (ok) value = *v;
        } else {
          auto v = server.TopCoefficients(name, q.a);
          ok = v.ok();
          if (ok) top = std::move(v).value();
        }
      } else {
        const ServedSynopsis* handle = server.Find(name);
        const auto found = Clock::now();
        reader.times.ns[kFind] += Nanos(start, found);
        reader.times.calls[kFind] += 1;
        ok = handle != nullptr;
        if (ok) {
          Call call = kTopKCall;
          if (q.kind == kPoint) {
            value = handle->PointEstimate(q.a);
            call = handle->kind() == probsyn::SynopsisBlobKind::kHistogram
                       ? kPointHistogram
                       : kPointWavelet;
          } else if (q.kind == kRange) {
            value = handle->RangeSum(q.a, q.b);
            call = kRangeCall;
          } else {
            top = handle->TopCoefficients(q.a);
          }
          reader.times.ns[call] += Nanos(found, Clock::now());
          reader.times.calls[call] += 1;
        }
      }
      reader.latency_ns.push_back(Nanos(start, Clock::now()));
      reader.per_kind[q.kind] += 1;
      if (!ok) ++reader.failures;
      if (n % kSampleEvery == 0) {
        reader.samples.push_back({q, value, std::move(top)});
      }
    }
  };

  // Reader buffers are allocated here, on the main thread, so the
  // benchmark's own allocations do not depend on thread scheduling.
  std::vector<Reader> readers(kReaders);
  for (Reader& reader : readers) {
    reader.latency_ns.reserve(kQueriesPerReader);
    reader.samples.reserve(kQueriesPerReader / kSampleEvery + 1);
  }
  double phase_s = 0.0;
  {
    Tracer::Scope scope(tracer, "serve.query_phase");
    std::latch start(1);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        start.wait();
        if (traced) {
          run_reader.template operator()<true>(r, readers[r]);
        } else {
          run_reader.template operator()<false>(r, readers[r]);
        }
      });
    }
    const auto phase_start = Clock::now();
    start.count_down();
    for (std::thread& t : threads) t.join();
    phase_s = SecondsBetween(phase_start, Clock::now());
  }

  // Throughput of all readers together: every query answered, over the
  // wall time from releasing the readers to the last one finishing.
  std::vector<double> latency;
  latency.reserve(kReaders * kQueriesPerReader);
  for (const Reader& reader : readers) {
    latency.insert(latency.end(), reader.latency_ns.begin(),
                   reader.latency_ns.end());
  }
  out.query_qps.push_back(static_cast<double>(latency.size()) / phase_s);
  out.query_us_p50.push_back(1e-3 * Percentile(latency, 0.50));
  out.query_us_p99.push_back(1e-3 * Percentile(latency, 0.99));

  // Sampled answers from every reader must be bitwise-equal to the
  // construction-side estimators.
  for (const Reader& reader : readers) {
    ledger.Ok(kQueriesPerReader - reader.failures);
    for (std::size_t f = 0; f < reader.failures; ++f) {
      ledger.Check(false, "serve: query returned a non-OK status");
    }
    for (const Sample& s : reader.samples) {
      const probsyn::SynopsisResult& want = built_[s.query.id];
      const bool histogram = want.kind == probsyn::SynopsisKind::kHistogram;
      bool same = false;
      const std::size_t a = s.query.a;
      const std::size_t b = s.query.b;
      if (s.query.kind == kPoint) {
        same = SameBits(s.value, histogram ? want.histogram.Estimate(a)
                                           : want.wavelet.Estimate(a));
      } else if (s.query.kind == kRange) {
        same = SameBits(s.value, histogram
                                     ? want.histogram.EstimateRangeSum(a, b)
                                     : want.wavelet.EstimateRangeSum(a, b));
      } else {
        const auto& ranked = ranked_[s.query.id];
        same = s.top.size() == std::min(a, ranked.size()) &&
               std::equal(s.top.begin(), s.top.end(), ranked.begin(),
                          [](const auto& x, const auto& y) {
                            return x.index == y.index &&
                                   SameBits(x.value, y.value);
                          });
      }
      if (same) {
        ledger.Ok();
      } else {
        ledger.Check(false, "serve: answer to " + names_[s.query.id] +
                                " differs from the construction-side synopsis");
      }
    }
  }

  if (traced) {
    CallTimes total;
    double per_kind[3] = {};
    for (const Reader& reader : readers) {
      for (int c = 0; c < 5; ++c) {
        total.ns[c] += reader.times.ns[c];
        total.calls[c] += reader.times.calls[c];
      }
      for (int k = 0; k < 3; ++k) {
        per_kind[k] += static_cast<double>(reader.per_kind[k]);
      }
    }
    const char* metric[5] = {"serve.find_ns", "serve.point_ns.histogram",
                             "serve.point_ns.wavelet", "serve.range_ns",
                             "serve.topk_ns"};
    for (int c = 0; c < 5; ++c) {
      if (total.calls[c] > 0) {
        ctx.layer[metric[c]].push_back(total.ns[c] / total.calls[c]);
      }
    }
    ctx.layer["serve.queries.point"].push_back(per_kind[kPoint]);
    ctx.layer["serve.queries.range"].push_back(per_kind[kRange]);
    ctx.layer["serve.queries.topk"].push_back(per_kind[kTopK]);
  }
}

}  // namespace perfbench
