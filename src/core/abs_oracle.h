#ifndef PROBSYN_CORE_ABS_ORACLE_H_
#define PROBSYN_CORE_ABS_ORACLE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/bucket_oracle.h"
#include "model/value_pdf.h"
#include "util/prefix_sums.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// Sum-Absolute-Error / Sum-Absolute-Relative-Error bucket oracle
/// (paper sections 3.3 and 3.4; SAE is the w_ij = Pr[g_i = v_j] special
/// case of the weighted SARE machinery).
///
/// With V = {v_0 < ... < v_{K-1}} the global value grid, d_j = v_{j+1}-v_j,
/// per-item cumulative weights W_i(j) = sum_{r<=j} w_ir and
/// W*_i(j) = sum_{r>j} w_ir, the bucket cost at representative bhat = v_l is
///
///   cost(l) = sum_{j<l} P_{j,s,e} d_j + sum_{j>=l} P*_{j,s,e} d_j,
///   P_{j,s,e} = sum_{i=s..e} W_i(j),   P*_{j,s,e} = sum_{i=s..e} W*_i(j),
///
/// and the paper shows the optimum is attained at some grid value, with
/// cost(l) the sampling of a convex function (P monotone up, P* down).
/// We precompute, for every l, item-prefix tables of
///   U_i(l) = sum_{j<l}  W_i(j)  d_j   and   D_i(l) = sum_{j>=l} W*_i(j) d_j,
/// so any (bucket, l) evaluation is two O(1) range sums, and locate the
/// optimal l by convex ternary search — O(log |V|) per bucket after
/// O(n |V|) preprocessing (the paper's Theorems 3 and 4).
class AbsCumulativeOracle final : public BucketCostOracle {
 public:
  /// relative == false -> SAE; true -> SARE with sanity constant c.
  /// `weights` are optional per-item workload weights (empty = uniform);
  /// they scale each item's w_ij. The paper's machinery already allows
  /// "arbitrary non-negative weights" here (section 3.4). A non-null
  /// `pool` parallelizes the O(n |V|) U/D table fill (independent items).
  AbsCumulativeOracle(const ValuePdfInput& input, bool relative,
                      double sanity_c, std::span<const double> weights = {},
                      ThreadPool* pool = nullptr);

  std::size_t domain_size() const override { return n_; }
  BucketCost Cost(std::size_t s, std::size_t e) const override;
  std::unique_ptr<Sweep> StartSweep(std::size_t e) const override;

  /// Expected bucket error for a *given* grid representative index; exposed
  /// for tests that verify convexity and optimality of the searched l.
  /// Defined inline so the convex search's probe loop (OptimalGridIndex)
  /// compiles down to direct bank reads with no cross-TU call per probe.
  double CostAtGridIndex(std::size_t s, std::size_t e, std::size_t l) const {
    return below_.RangeSum(l, s, e) + above_.RangeSum(l, s, e);
  }

  const std::vector<double>& grid() const { return grid_; }

  /// Outcome of the constructor's parallel U/D table fill: non-OK when the
  /// fan-out failed (an injected thread-pool fault) — the tables are then
  /// garbage and the oracle must not be used. Checked by MakeBucketOracle.
  const Status& preprocess_status() const { return preprocess_status_; }

  /// Sentinel for OptimalGridIndex / FlatSweep: no warm hint available.
  static constexpr std::size_t kNoHint = static_cast<std::size_t>(-1);

  /// Optimal representative grid index for bucket [s, e], optionally
  /// warm-started from a neighboring cell's optimum.
  ///
  /// With `hint == kNoHint` this is exactly the cold convex ternary search
  /// that Cost() runs (TernarySearchMinIndexOver over the full grid). With a
  /// hint, the 3-point window around the hint is probed first and its best
  /// index is accepted only when it is a STRICT pit — both neighbors
  /// strictly larger. On the convex cost curves the paper proves for
  /// SAE/SARE (Theorems 3 and 4) a strict pit is the unique global
  /// minimizer, i.e. exactly what the cold search returns; exact ties,
  /// plateaus, and drifts past the window fall back to the cold search.
  /// The warm fast path costs O(1) probes instead of the cold search's
  /// O(log |V|) — a DP sweep moves the optimum slowly, so most cells take
  /// it.
  ///
  /// Caveat (why the DP paths are wired the way they are): the COMPUTED
  /// cost sequence can deviate from convexity by rounding — a flat-bottomed
  /// plateau can split into several equal-valued strict pits — and then a
  /// warm-accepted pit may be a different, equally-optimal grid index than
  /// the cold search's. Both DP routes over this oracle (reference and
  /// kernel) therefore share ONE warm probe sequence via FlatSweep, making
  /// their parity independent of this caveat; only warm-vs-cold agreement
  /// is convexity-conditional.
  std::size_t OptimalGridIndex(std::size_t s, std::size_t e,
                               std::size_t hint) const;

  /// Non-virtual leftward sweep with fixed right end `e`: the k-th call to
  /// Extend() returns Cost(e - k + 1, e), warm-starting each cell's
  /// representative search from the previous cell's optimum (see
  /// OptimalGridIndex). This is the concrete engine behind the virtual
  /// StartSweep() adapter; the devirtualized DP kernel
  /// (core/dp_kernels.cc) drives it directly, so both paths run the
  /// identical probe sequence and stay bit-identical.
  class FlatSweep {
   public:
    FlatSweep(const AbsCumulativeOracle& oracle, std::size_t e);
    BucketCost Extend();

   private:
    const AbsCumulativeOracle& oracle_;
    std::size_t end_;
    std::size_t next_start_;
    std::size_t hint_ = kNoHint;
  };

 private:
  std::size_t n_;
  std::vector<double> grid_;
  Status preprocess_status_;
  PrefixSumsBank below_;  // row l: per-item U_i(l)
  PrefixSumsBank above_;  // row l: per-item D_i(l)
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_ABS_ORACLE_H_
