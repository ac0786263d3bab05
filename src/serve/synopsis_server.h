#ifndef PROBSYN_SERVE_SYNOPSIS_SERVER_H_
#define PROBSYN_SERVE_SYNOPSIS_SERVER_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/histogram.h"
#include "core/wavelet.h"
#include "serve/synopsis_store.h"
#include "util/status.h"

namespace probsyn {

/// One synopsis decoded out of a store, held as the construction-side
/// object itself (Histogram or WaveletSynopsis) plus, for wavelets, a
/// precomputed top-|value| ranking. Every per-entry member is O(B): a
/// wavelet is served from its retained coefficients, never from a dense
/// frequency vector. Immutable after construction, so any number of reader
/// threads may query one instance concurrently without locking.
///
/// Answer contract: every query is BITWISE-equal to evaluating the same
/// query on the construction-side object (Histogram::Estimate /
/// EstimateRangeSum, WaveletSynopsis::Estimate / EstimateRangeSum) — by
/// construction, because the serving tier calls exactly those methods on
/// the round-tripped object. The 200-case differential sweep in
/// tests/synopsis_server_test.cc pins it across SIMD dispatch modes. The
/// hot-path accessors below skip the SynopsisServer wrappers' Status
/// validation (an out-of-range index fails the estimators' CHECKs).
class ServedSynopsis {
 public:
  /// Takes ownership of a decoded blob.
  explicit ServedSynopsis(DecodedSynopsis decoded);

  SynopsisBlobKind kind() const { return kind_; }
  /// Domain size n the synopsis answers queries over.
  std::size_t domain_size() const {
    return kind_ == SynopsisBlobKind::kHistogram ? histogram_.domain_size()
                                                 : wavelet_.domain_size();
  }
  /// Retained coefficient count (0 for histograms).
  std::size_t num_coefficients() const { return wavelet_.num_coefficients(); }
  /// Bucket count (0 for wavelets).
  std::size_t num_buckets() const { return histogram_.num_buckets(); }

  /// ghat_i. O(log B) for histograms, O(log n log B) for wavelets.
  /// Precondition: i < domain_size().
  double PointEstimate(std::size_t i) const {
    return kind_ == SynopsisBlobKind::kHistogram ? histogram_.Estimate(i)
                                                 : wavelet_.Estimate(i);
  }

  /// Estimate of sum_{i=a..b} g_i. O(log B + buckets overlapped) for
  /// histograms, O(log n log B) for wavelets.
  /// Precondition: a <= b < domain_size().
  double RangeSum(std::size_t a, std::size_t b) const {
    return kind_ == SynopsisBlobKind::kHistogram
               ? histogram_.EstimateRangeSum(a, b)
               : wavelet_.EstimateRangeSum(a, b);
  }

  /// RangeSum(a, b) / (b - a + 1).
  double RangeAverage(std::size_t a, std::size_t b) const {
    return RangeSum(a, b) / static_cast<double>(b - a + 1);
  }

  /// The k largest-magnitude retained coefficients, ordered by |value|
  /// descending with index-ascending ties (clamped to the retained count).
  /// O(k) — the ranking is precomputed. Wavelets only (empty otherwise).
  std::vector<WaveletCoefficient> TopCoefficients(std::size_t k) const;

 private:
  SynopsisBlobKind kind_;
  Histogram histogram_;      // set when kind_ == kHistogram
  WaveletSynopsis wavelet_;  // set when kind_ == kWavelet
  // Positions in wavelet_.coefficients() by |value| desc, index asc.
  std::vector<std::size_t> magnitude_order_;
};

/// The query tier over a synopsis store: maps the file, decodes (and
/// checksum-verifies) every blob once at Open, then answers point/range/
/// top-k queries with no per-query allocation or I/O. All methods are
/// const and the server is immutable after Open — concurrent readers need
/// no synchronization, which the SynopsisServerConcurrent tests pin under
/// TSan.
///
/// For sub-microsecond hot paths, resolve the name once with Find and
/// query the ServedSynopsis directly (the name-keyed wrappers below add
/// one hash lookup and Status boxing per call).
class SynopsisServer {
 public:
  /// Opens the store at `path` and decodes every synopsis. Fails (with the
  /// store's or codec's Status) on any corrupt entry — a server never
  /// comes up partially.
  static StatusOr<SynopsisServer> Open(const std::string& path);

  /// Decodes every synopsis of an already-opened store.
  static StatusOr<SynopsisServer> FromStore(SynopsisStore store);

  /// Number of served synopses.
  std::size_t size() const { return served_.size(); }

  /// All served names, sorted.
  std::vector<std::string> Names() const { return store_.Names(); }

  /// The underlying mapped store (raw blob access, directory metadata).
  const SynopsisStore& store() const { return store_; }

  /// Handle lookup for hot paths; nullptr when the name is not served.
  const ServedSynopsis* Find(const std::string& name) const;

  /// ghat_i from synopsis `name`; kNotFound / kOutOfRange on bad input.
  StatusOr<double> PointEstimate(const std::string& name,
                                 std::size_t i) const;

  /// Estimate of sum_{i=a..b} g_i from synopsis `name`.
  StatusOr<double> RangeSum(const std::string& name, std::size_t a,
                            std::size_t b) const;

  /// RangeSum / item count.
  StatusOr<double> RangeAverage(const std::string& name, std::size_t a,
                                std::size_t b) const;

  /// The k largest-magnitude coefficients of wavelet synopsis `name`;
  /// kInvalidArgument when `name` is a histogram.
  StatusOr<std::vector<WaveletCoefficient>> TopCoefficients(
      const std::string& name, std::size_t k) const;

 private:
  SynopsisServer(SynopsisStore store,
                 std::unordered_map<std::string, ServedSynopsis> served)
      : store_(std::move(store)), served_(std::move(served)) {}

  StatusOr<const ServedSynopsis*> FindChecked(const std::string& name) const;

  SynopsisStore store_;
  std::unordered_map<std::string, ServedSynopsis> served_;
};

}  // namespace probsyn

#endif  // PROBSYN_SERVE_SYNOPSIS_SERVER_H_
