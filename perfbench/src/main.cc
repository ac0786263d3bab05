// Benchmark program: sets up one workload from a seed, measures rounds for a
// fixed time, checks every answer, and prints the metrics. See
// perfbench/README.md for the workloads, the metrics and how to run it.
//
//   perfbench --workload construct|serve --seed N
//                    --seconds S --trace 0|1 --scratch DIR
//                    [--trace-out FILE]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, taken from rounds that record
// spans, alternating with untraced rounds that give the tracing overhead.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "stages.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinRounds = 4;

// Per-layer metrics of the traced run, in BENCHMARK.json order: each is
// the median over traced rounds of a per-round value in `layer`.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.exact_dp.sse_s", "s"},
    {"core.exact_dp.sare_s", "s"},
    {"core.exact_dp.mae_s", "s"},
    {"core.approx_dp_s", "s"},
    {"core.approx_dp.oracle_evaluations", "count"},
    {"core.sharded_dp_s", "s"},
    {"core.wavelet_dp_s", "s"},
    {"stream.push_s", "s"},
    {"engine.preprocess_s", "s"},
    {"engine.solve_s", "s"},
    {"engine.workspaces_created", "count"},
    {"util.thread_pool.cpu_per_wall", "ratio"},
    {"serve.store_open_s", "s"},
    {"serve.decode_s", "s"},
    {"serve.find_ns", "ns"},
    {"serve.point_ns.histogram", "ns"},
    {"serve.point_ns.wavelet", "ns"},
    {"serve.range_ns", "ns"},
    {"serve.topk_ns", "ns"},
    {"serve.queries.point", "count"},
    {"serve.queries.range", "count"},
    {"serve.queries.topk", "count"},
    {"serve.store_write_s", "s"},
    {"stream.submit_s", "s"},
    {"stream.drain_s", "s"},
    {"stream.drain_us_p50", "us"},
    {"stream.drain_us_p99", "us"},
    {"stream.items_per_batch", "ratio"},
    {"stream.finish_s", "s"},
    {"self_s.bench", "s"},
    {"self_s.core", "s"},
    {"self_s.stream", "s"},
    {"self_s.serve", "s"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "construct|serve --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload != "construct" && args.workload != "serve") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

// One set-up of a workload: the three stages, the workload's own stage at
// full size.
class Setup {
 public:
  Setup(const Args& args, Ledger& ledger, Tracer& tracer, Series& layer)
      : ctx_{ledger, tracer, layer, args.scratch},
        construct_(args.workload == "construct", args.seed),
        ingest_(args.seed, ctx_),
        serve_(args.workload == "serve", args.seed, ctx_) {}

  void Round(EndToEnd& out, int round) {
    Tracer::Scope scope(ctx_.tracer, "bench.round");
    {
      Tracer::Scope stage(ctx_.tracer, "bench.stage.construct");
      construct_.Round(ctx_, out);
    }
    {
      Tracer::Scope stage(ctx_.tracer, "bench.stage.ingest_refresh");
      ingest_.Round(ctx_, out);
    }
    Tracer::Scope stage(ctx_.tracer, "bench.stage.serve");
    serve_.Round(ctx_, out, round);
  }

 private:
  StageContext ctx_;
  ConstructStage construct_;
  IngestStage ingest_;
  ServeStage serve_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double MedianOf(const Series& series, const std::string& name) {
  const auto it = series.find(name);
  return it == series.end() ? 0.0 : Median(it->second);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  Ledger ledger;
  Tracer tracer;
  Series layer;

  // Set-up (inputs, engines, store, replay, one warm-up round) runs several
  // times; setup_s is the median and the last set-up is measured.
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();
    const auto start = Clock::now();
    setup = std::make_unique<Setup>(args, ledger, tracer, layer);
    EndToEnd warmup;
    setup->Round(warmup, -1);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }

  EndToEnd e2e;
  EndToEnd traced_sink;
  std::vector<double> traced_round_s;
  std::vector<double> plain_round_s;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int round = 0;
       round < kMinRounds || Clock::now() < deadline; ++round) {
    const bool traced = args.trace && round % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_round(round);
    const auto start = Clock::now();
    setup->Round(traced ? traced_sink : e2e, round);
    (traced ? traced_round_s : plain_round_s)
        .push_back(SecondsBetween(start, Clock::now()));
    if (traced) tracer.SummarizeRound(round, kLanes, layer);
  }
  tracer.set_enabled(false);
  setup.reset();

  std::printf("perfbench: workload=%s seed=%llu rounds=%zu traced_rounds=%zu "
              "lanes=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain_round_s.size(), traced_round_s.size(), kLanes);
  std::printf("  failed_ratio = %zu / %zu\n", ledger.failed(),
              ledger.attempted());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"build_s_p50", Median(e2e.build_s), "s"},
        {"cost_ratio_max", e2e.cost_ratio_max, "ratio"},
        {"query_qps", Median(e2e.query_qps), "1/s"},
        {"query_us_p50", Median(e2e.query_us_p50), "us"},
        {"query_us_p99", Median(e2e.query_us_p99), "us"},
        {"open_s_p50", Median(e2e.open_s), "s"},
        {"store_bytes_per_entry", e2e.store_bytes_per_entry, "B"},
        {"updates_per_s", Median(e2e.updates_per_s), "1/s"},
        {"refresh_s_p50", Median(e2e.refresh_s), "s"},
    };
  } else {
    // Per-call DrainAll percentiles pool the spans of every traced round.
    std::vector<double> drain_us;
    for (const Span& span : tracer.spans()) {
      if (span.name == "stream.drain") {
        drain_us.push_back(1e6 * (span.end_s - span.start_s));
      }
    }
    layer["stream.drain_us_p50"] = {Percentile(drain_us, 0.50)};
    layer["stream.drain_us_p99"] = {Percentile(drain_us, 0.99)};
    layer["trace.overhead_ratio"] = {Median(traced_round_s) /
                                     Median(plain_round_s)};
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, MedianOf(layer, name), unit});
    }
    if (!args.trace_out.empty()) {
      const std::string header = "\"workload\": \"" + args.workload +
                                 "\", \"seed\": " + std::to_string(args.seed) +
                                 ", \"lanes\": " + std::to_string(kLanes);
      ledger.CheckStatus(tracer.WriteJson(args.trace_out, header),
                         "writing the span trace");
    }
  }
  PrintResult(ledger, metrics);
  return 0;
}
