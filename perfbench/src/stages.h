// The three stages a benchmark round runs. Every workload runs all three,
// so each run reports every end-to-end metric. The workload's own stage
// (construct or serve) runs at full size and the other at a light size, so
// the run's time goes to the layers the workload is meant to stress; the
// ingest stage has one size (see perfbench/README.md). Each stage stands up
// its own engine, as a separate service would, so a light stage never
// leases workspaces from the pool the full stage uses.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "core/wavelet.h"
#include "engine/synopsis_engine.h"
#include "harness.h"
#include "model/value_pdf.h"

namespace perfbench {

/// Lanes of every stage's engine.
inline constexpr std::size_t kLanes = 4;

/// What a stage needs from the run: the ledger, the tracer, and where
/// traced per-layer samples go.
struct StageContext {
  Ledger& ledger;
  Tracer& tracer;
  /// Per-round per-layer values; written only while tracing.
  Series& layer;
  /// Directory for store files, inside the benchmark's build tree.
  std::string scratch_dir;
};

/// End-to-end samples, one entry per measured round where a vector.
struct EndToEnd {
  std::vector<double> build_s;
  double cost_ratio_max = 0.0;
  std::vector<double> query_us_p50;
  std::vector<double> query_us_p99;
  std::vector<double> query_qps;
  std::vector<double> open_s;
  double store_bytes_per_entry = 0.0;
  std::vector<double> updates_per_s;
  std::vector<double> refresh_s;
};

/// Construction through the engine facade: a fixed sequence of seven
/// calls (exact, approximate, sharded, streaming and wavelet routes).
class ConstructStage {
 public:
  ConstructStage(bool full, std::uint64_t seed);
  void Round(StageContext& ctx, EndToEnd& out) const;

 private:
  probsyn::SynopsisEngine engine_;
  probsyn::ValuePdfInput main_;     // calls (a)-(e)
  probsyn::ValuePdfInput wavelet_;  // call (f)
  probsyn::ValuePdfInput mae_;      // call (g)
};

/// A store of equi-depth histograms and greedy wavelets, re-opened every
/// round and queried by four closed-loop readers.
class ServeStage {
 public:
  ServeStage(bool full, std::uint64_t seed, StageContext& ctx);
  ~ServeStage();
  void Round(StageContext& ctx, EndToEnd& out, int round);

 private:
  probsyn::SynopsisEngine engine_;
  std::size_t domain_ = 0;
  std::size_t opens_per_round_ = 0;
  std::uint64_t seed_ = 0;
  std::string path_;
  std::vector<std::string> names_;
  std::vector<probsyn::SynopsisResult> built_;  // construction-side answers
  /// Per wavelet entry, its coefficients in top-k order (empty otherwise).
  std::vector<std::vector<probsyn::WaveletCoefficient>> ranked_;
  std::vector<double> name_cdf_;     // Zipf popularity over names_
  std::vector<std::size_t> wavelet_ids_;
  std::vector<double> wavelet_cdf_;  // Zipf popularity over wavelet_ids_
};

/// Four streams through SynopsisEngine::OpenIngest, then Finish, Store,
/// Serve and one probe query.
class IngestStage {
 public:
  IngestStage(std::uint64_t seed, StageContext& ctx);
  ~IngestStage();
  void Round(StageContext& ctx, EndToEnd& out) const;

 private:
  probsyn::SynopsisEngine engine_;
  std::string path_;
  std::vector<probsyn::ValuePdfInput> streams_;
  std::vector<probsyn::Histogram> replay_;  // single-threaded PushBatch
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
