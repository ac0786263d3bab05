#ifndef PROBSYN_CORE_POINT_ERROR_H_
#define PROBSYN_CORE_POINT_ERROR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/metrics.h"
#include "model/value_pdf.h"
#include "util/envelope.h"
#include "util/logging.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// Precomputed per-item tables for evaluating expected point errors
/// E_W[err(g_i, v)] for arbitrary estimates v in O(1) / O(log |V|).
///
/// This is the machinery behind three parts of the paper:
///  * the MAE/MARE bucket oracle (section 3.6), which needs per-item error
///    curves f_i(bhat) and their linear pieces;
///  * the expected leaf errors OPTW[i, 0, v] of the wavelet DP
///    (section 4.2);
///  * evaluation of arbitrary synopses under every metric (section 5's
///    quality experiments re-cost baseline synopses under the true
///    distribution).
///
/// For the absolute metrics the curve f_i(v) = sum_j w_ij |v_j - v| is
/// convex piecewise-linear with breakpoints on the global value grid V; on
/// the segment [v_l, v_{l+1}] it equals
///     v * (2 CW_i[l] - TW_i) + (TWV_i - 2 CWV_i[l])
/// where CW/CWV are weight and weight*value prefix sums over grid indices.
/// Squared metrics expand to per-item quadratic forms in v.
class PointErrorTables {
 public:
  /// Builds tables for the given input and sanity constant. All six metrics
  /// are then answerable from the one object. Cost: O(n |V|) time/space.
  /// A non-null `pool` fans the per-item table fills out across workers
  /// (rows are independent given the shared value grid); results are
  /// identical to the sequential build.
  PointErrorTables(const ValuePdfInput& input, double sanity_c,
                   ThreadPool* pool = nullptr);

  std::size_t domain_size() const { return n_; }
  double sanity_c() const { return c_; }

  /// Outcome of the constructor's parallel table fill: non-OK when the
  /// fan-out failed (an injected thread-pool fault) — the tables are then
  /// garbage and must not be served. Checked by MakeBucketOracle.
  const Status& preprocess_status() const { return preprocess_status_; }

  /// The global sorted value grid V (always contains 0).
  const std::vector<double>& grid() const { return grid_; }

  /// E_W[err(g_i, v)] for the point error underlying `metric`.
  /// (For kSse this is E[(g_i - v)^2]; for kMae it is E[|g_i - v|]; etc. —
  /// max vs sum aggregation is the caller's concern.)
  double ExpectedPointError(ErrorMetric metric, std::size_t i, double v) const;

  /// E[(g_i - v)^2].
  double SquaredError(std::size_t i, double v) const;
  /// E[(g_i - v)^2 / max(c, g_i)^2].
  double SquaredRelativeError(std::size_t i, double v) const;
  /// E[|g_i - v|].
  double AbsoluteError(std::size_t i, double v) const;
  /// E[|g_i - v| / max(c, g_i)].
  double AbsoluteRelativeError(std::size_t i, double v) const;

  /// Index l of the grid segment containing v: largest l with grid[l] <= v,
  /// or size_t(-1) if v < grid[0]. O(log |V|).
  std::size_t SegmentOf(double v) const;

  /// The linear piece of f_i on segment [grid[l], grid[l+1]] for the
  /// absolute error (relative == true applies the 1/max(c, g) weight).
  /// l == size_t(-1) (left of the grid) and l == |V|-1 (right of it) give
  /// the outer rays. Used by the max-error oracle's envelope step. Inline,
  /// like AbsoluteErrorAtGridIndex, because that oracle's sweep evaluates
  /// it once per (item, probed grid index).
  Line AbsoluteErrorLine(std::size_t i, std::size_t l, bool relative) const {
    const double* cw =
        relative ? &cw_rel_[i * grid_size_] : &cw_abs_[i * grid_size_];
    const double* cwv =
        relative ? &cwv_rel_[i * grid_size_] : &cwv_abs_[i * grid_size_];
    const double tw = cw[grid_size_ - 1];
    const double twv = cwv[grid_size_ - 1];
    if (l == static_cast<std::size_t>(-1)) {
      // Left of the whole grid: f_i(v) = sum w (v_j - v) = twv - v * tw.
      return Line{-tw, twv};
    }
    PROBSYN_DCHECK(l < grid_size_);
    // f_i(v) = v (2 CW[l] - TW) + (TWV - 2 CWV[l]) for v in
    // [grid[l], grid[l+1]] (or beyond the last grid point when l = K-1).
    return Line{2.0 * cw[l] - tw, twv - 2.0 * cwv[l]};
  }

  /// AbsoluteError(i, grid[l]) (relative: AbsoluteRelativeError), addressed
  /// by grid index. SegmentOf(grid[l]) == l on the strictly increasing
  /// grid, so this is the same arithmetic without the binary search, and
  /// the result is bit-identical.
  double AbsoluteErrorAtGridIndex(std::size_t i, std::size_t l,
                                  bool relative) const {
    return std::max(0.0, AbsoluteErrorLine(i, l, relative).At(grid_[l]));
  }

 private:
  double AbsErrorImpl(std::size_t i, double v, bool relative) const;

  std::size_t n_ = 0;
  double c_ = 1.0;
  std::vector<double> grid_;
  Status preprocess_status_;

  // Quadratic-form coefficients: E[(g-v)^2] = m2_[i] - 2 v m1_[i] + v^2,
  // and the weighted variant with w2(g) = 1/max(c,g)^2:
  // E[w2(g)(g-v)^2] = x_[i] - 2 v y_[i] + v^2 z_[i].
  std::vector<double> m1_, m2_;
  std::vector<double> x_, y_, z_;

  // Per-item grid-indexed prefix tables, row-major [i * K + l].
  // cw_abs_[i][l]  = sum_{j<=l} Pr[g_i = v_j]
  // cwv_abs_[i][l] = sum_{j<=l} Pr[g_i = v_j] * v_j
  // cw_rel_/cwv_rel_: same with the 1/max(c, v_j) weight folded in.
  std::size_t grid_size_ = 0;
  std::vector<double> cw_abs_, cwv_abs_, cw_rel_, cwv_rel_;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_POINT_ERROR_H_
