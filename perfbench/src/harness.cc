#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "gen/generators.h"
#include "model/induced.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double>& values, double p) {
  PROBSYN_CHECK(!values.empty());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameHistogram(const probsyn::Histogram& a, const probsyn::Histogram& b) {
  if (a.num_buckets() != b.num_buckets()) return false;
  for (std::size_t k = 0; k < a.num_buckets(); ++k) {
    const auto& x = a.buckets()[k];
    const auto& y = b.buckets()[k];
    if (x.start != y.start || x.end != y.end ||
        !SameBits(x.representative, y.representative)) {
      return false;
    }
  }
  return true;
}

bool Ledger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    // Report the first few failures; the count carries the rest.
    if (failed_.fetch_add(1) < 20) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  return ok;
}

bool Ledger::CheckStatus(const probsyn::Status& status,
                         const std::string& what) {
  return Check(status.ok(),
               status.ok() ? what : what + ": " + status.ToString());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, bool pool)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.round = tracer_.round_;
  span.pool = pool;
  span.cpu_s = ProcessCpuSeconds();
  span.start_s = SecondsBetween(tracer_.epoch_, Clock::now());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_s = SecondsBetween(tracer_.epoch_, Clock::now());
  span.cpu_s = ProcessCpuSeconds() - span.cpu_s;
  tracer_.open_.pop_back();
}

void Tracer::SummarizeRound(int round, std::size_t lanes, Series& out) const {
  // Child coverage per span: children of one parent run one after another
  // on the main thread, so their durations add up without overlap.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.round == round && span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> self_by_layer;
  double pool_cpu = 0.0;
  double pool_wall = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.round != round) continue;
    const double wall = span.end_s - span.start_s;
    const double self = wall - child[i];
    self_by_name[span.name] += self;
    self_by_layer[span.name.substr(0, span.name.find('.'))] += self;
    if (span.pool) {
      pool_cpu += span.cpu_s;
      pool_wall += wall;
    }
  }
  for (const auto& [name, self] : self_by_name) {
    out[name + "_s"].push_back(self);
  }
  for (const auto& [layer, self] : self_by_layer) {
    out["self_s." + layer].push_back(self);
  }
  if (pool_wall > 0.0) {
    out["util.thread_pool.cpu_per_wall"].push_back(
        pool_cpu / (pool_wall * static_cast<double>(lanes)));
  }
}

probsyn::Status Tracer::WriteJson(const std::string& path,
                                  const std::string& header) const {
  std::ofstream out(path);
  if (!out) return probsyn::Status::IOError("cannot write " + path);
  out << "{" << header << ", \"spans\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %zu, \"name\": \"%s\", \"round\": %d, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"cpu_s\": %.9f}%s\n",
                  i, s.name.c_str(), s.round, s.parent, s.start_s, s.end_s,
                  s.cpu_s, i + 1 == spans_.size() ? "" : ",");
    out << line;
  }
  out << "]}\n";
  return out ? probsyn::Status::OK()
             : probsyn::Status::IOError("short write to " + path);
}

probsyn::ValuePdfInput MovieInput(std::size_t domain_size, std::uint64_t seed) {
  probsyn::MovieLinkageOptions options;
  options.domain_size = domain_size;
  options.num_segments = std::max<std::size_t>(24, domain_size / 256);
  options.seed = seed;
  auto induced =
      probsyn::InduceValuePdf(probsyn::GenerateMovieLinkage(options));
  PROBSYN_CHECK(induced.ok());
  return std::move(induced).value();
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  return probsyn::Rng(seed * 0x100000001b3ull ^ tag).NextUint64();
}

}  // namespace perfbench
