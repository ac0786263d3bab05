#ifndef PROBSYN_CORE_BUCKET_ORACLE_H_
#define PROBSYN_CORE_BUCKET_ORACLE_H_

#include <cstddef>
#include <memory>

namespace probsyn {

/// Optimal representative and expected error of one histogram bucket:
/// the pair (bhat*, E_W[BERR([s,e], bhat*)]) of the paper's DP recurrence
/// (equation (2)).
struct BucketCost {
  double representative = 0.0;
  double cost = 0.0;
};

/// Per-metric bucket cost oracle. Most of the paper's technical content
/// (sections 3.1-3.4, 3.6) is exactly "make Cost(s, e) fast"; the DP on top
/// is metric-agnostic.
///
/// Two access patterns:
///  * `Cost(s, e)` — random access; O(1) or O(log |V|) for the cumulative
///    metrics, O(n_b log |V| + n_b log n_b) for max metrics, O(m) for the
///    exact tuple-pdf SSE oracle.
///  * `StartSweep(e)` — the DP's inner loop enumerates buckets [s, e] with
///    fixed right end and s descending from e to 0; sweeps let stateful
///    oracles extend the bucket leftward instead of recomputing from
///    scratch — exact tuple-pdf SSE in amortized O(1 + tuples touched),
///    max metrics by reusing probed envelope values and segment minima.
class BucketCostOracle {
 public:
  virtual ~BucketCostOracle() = default;

  /// Size n of the item domain.
  virtual std::size_t domain_size() const = 0;

  /// Optimal representative and expected error for bucket [s, e],
  /// 0 <= s <= e < n.
  virtual BucketCost Cost(std::size_t s, std::size_t e) const = 0;

  /// Stateful leftward bucket extension with fixed right end `e`: the k-th
  /// call to Extend() returns Cost(e - k + 1, e).
  class Sweep {
   public:
    virtual ~Sweep() = default;
    virtual BucketCost Extend() = 0;
  };

  /// Default implementation delegates each Extend() to Cost(); oracles with
  /// O(1) random access need not override.
  virtual std::unique_ptr<Sweep> StartSweep(std::size_t e) const;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_BUCKET_ORACLE_H_
