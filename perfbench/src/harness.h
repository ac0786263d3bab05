// Shared plumbing of the benchmark program: wall/CPU clocks, the ledger of
// attempted and failed operations, the in-memory span tracer, per-round
// sample series, and seeded input generation.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Order statistic at fraction p of `values` (nearest rank, reorders).
double Percentile(std::vector<double>& values, double p);

/// True when both doubles have the same bit pattern.
bool SameBits(double a, double b);

/// Bucket-by-bucket bitwise equality of two histograms.
bool SameHistogram(const probsyn::Histogram& a, const probsyn::Histogram& b);

/// Operation accounting behind the result's `attempted` and `failed`: every
/// call into the program and every answer check is one attempt; a non-OK
/// Status or a failed check is one failure. Thread-safe.
class Ledger {
 public:
  /// Records `n` attempted operations that succeeded.
  void Ok(std::size_t n = 1) { attempted_ += n; }
  /// Records one attempt that succeeds iff `ok`; logs `what` on failure.
  bool Check(bool ok, const std::string& what);
  /// Check(status.ok(), what + status message).
  bool CheckStatus(const probsyn::Status& status, const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> failed_{0};
};

/// Per-round samples keyed by metric name.
using Series = std::map<std::string, std::vector<double>>;

/// One recorded span: a timed call into a module, made from the
/// benchmark's main thread. `parent` is the index of the enclosing span
/// (-1 at top level); `round` is the measurement round the span belongs to.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;
  int parent = -1;
  int round = -1;
  /// The call runs on the engine's worker pool (counts toward
  /// util.thread_pool.cpu_per_wall).
  bool pool = false;
};

/// Keeps spans in memory while enabled; a disabled tracer records nothing
/// and its scopes cost two branches. Main thread only.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_round(int round) { round_ = round; }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, bool pool = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Adds this round's per-name self times (`<name>_s`), per-layer self
  /// times (`self_s.<layer>`) and the pool CPU/wall ratio to `out`.
  void SummarizeRound(int round, std::size_t lanes, Series& out) const;

  /// Writes every span as JSON to `path`.
  probsyn::Status WriteJson(const std::string& path,
                            const std::string& header) const;

 private:
  bool enabled_ = false;
  int round_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// Movie-linkage data (Zipf match counts, genre segments) induced to a
/// value pdf of `domain_size` items; the benchmark's only input family.
probsyn::ValuePdfInput MovieInput(std::size_t domain_size, std::uint64_t seed);

/// Mixes a run seed with a stream tag so every input has its own seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
