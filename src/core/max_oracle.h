#ifndef PROBSYN_CORE_MAX_ORACLE_H_
#define PROBSYN_CORE_MAX_ORACLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/bucket_oracle.h"
#include "core/point_error.h"
#include "util/envelope.h"

namespace probsyn {

/// Maximum-Absolute-Error / Maximum-Absolute-Relative-Error bucket oracle
/// (paper section 3.6): the bucket cost is
///
///     max_{s<=i<=e} E_W[w(g_i) |g_i - bhat|]
///
/// — the upper envelope of n_b convex piecewise-linear per-item curves.
/// The envelope is convex, so a ternary search over the value grid brackets
/// the optimal bhat between two adjacent grid values, and within each
/// candidate segment every curve is a line: the exact optimum is read off
/// the minimized upper envelope of lines (paper's min-of-max-of-lines step,
/// for which it cites the weighted-histogram machinery of [15]).
///
/// Random access (Cost): O(n_b log |V|) for the bracketing probes plus
/// O(n_b log n_b) for the two envelope minimizations — the
/// O(n_b log(n_b |V|)) of the paper's Theorem 6 analysis, with point errors
/// read by grid index and no allocation per call.
///
/// The exact DP asks for every bucket [s, e] of a column (fixed e, s
/// descending), and FlatSweep answers those incrementally with the same
/// bits: the envelope at a probed grid index is a running max, extended by
/// the items added since it was last probed (O(1) per item and index), and
/// a segment's minimized envelope is reused until a new item's line might
/// reach it. A column then costs O(P n_b) probe work for the P distinct
/// grid indices it probes, plus one O(n_b log n_b) rebuild per line that
/// fails the reuse test (see FlatSweep).
class MaxErrorOracle final : public BucketCostOracle {
 public:
  /// relative == false -> MAE; true -> MARE (c comes from `tables`).
  /// `weights` are optional per-item workload weights (empty = uniform):
  /// the objective becomes max_i phi_i E[err], still an upper envelope of
  /// convex piecewise-linear curves (each scaled by phi_i).
  MaxErrorOracle(std::shared_ptr<const PointErrorTables> tables, bool relative,
                 std::vector<double> weights = {});

  std::size_t domain_size() const override;
  BucketCost Cost(std::size_t s, std::size_t e) const override;
  std::unique_ptr<Sweep> StartSweep(std::size_t e) const override;

  /// max_{i in [s,e]} expected point error at representative v; exposed for
  /// tests (brute-force cross-checks of the searched optimum).
  double EnvelopeAt(std::size_t s, std::size_t e, double v) const;

  /// Non-virtual leftward sweep with fixed right end `e`: the k-th call to
  /// Extend() returns Cost(e - k + 1, e), bit for bit (cost and
  /// representative). It runs Cost()'s probe sequence over incrementally
  /// maintained state:
  ///
  ///  * env[l] = max over the items folded in so far of phi_i err_i(v_l),
  ///    folded lazily down to the current start the first time Extend()
  ///    probes l. max is exact in any order, so every probe value — and
  ///    hence the bracketing index — is Cost()'s.
  ///  * seg[l] = the minimized upper envelope of the items' lines on grid
  ///    segment [v_l, v_l+1], also folded lazily. An added line strictly
  ///    below, at both segment ends, a line that never exceeds the
  ///    envelope on the segment — the constant minimum, or the envelope's
  ///    active line at the minimizer — lies below the envelope on the
  ///    whole segment, so the cached result stands. Any other line
  ///    triggers a rebuild over all lines of the bucket, in item order,
  ///    exactly as Cost() builds them. (Testing the new line at the
  ///    minimizer alone is not enough: a line through an interior minimum
  ///    knot can round below it and still move the knot.)
  ///
  /// The concrete engine behind the virtual StartSweep() adapter; the
  /// devirtualized DP kernel (core/dp_kernels.cc) drives it directly, so
  /// both DP paths run the identical sweep.
  class FlatSweep {
   public:
    FlatSweep(const MaxErrorOracle& oracle, std::size_t e);
    BucketCost Extend();

   private:
    double EnvelopeAtIndex(std::size_t l);
    EnvelopeMin SegmentMin(std::size_t l);

    const MaxErrorOracle& oracle_;
    std::size_t end_;
    std::size_t next_start_;
    // env_[l] covers items [env_from_[l], end_]; end_ + 1 = none yet. Same
    // for seg_/seg_from_ over grid segments.
    std::vector<double> env_;
    std::vector<std::size_t> env_from_;
    std::vector<EnvelopeMin> seg_;
    std::vector<std::size_t> seg_from_;
    std::vector<Line> lines_;
    EnvelopeScratch scratch_;
  };

 private:
  double WeightOf(std::size_t i) const {
    return weights_.empty() ? 1.0 : weights_[i];
  }

  // phi_i E[err_i(v_l)] — one item's term of the envelope at grid index l.
  double PointError(std::size_t i, std::size_t l) const {
    return WeightOf(i) * tables_->AbsoluteErrorAtGridIndex(i, l, relative_);
  }

  // phi_i times item i's error line on grid segment l.
  Line WeightedLine(std::size_t i, std::size_t l) const {
    const Line line = tables_->AbsoluteErrorLine(i, l, relative_);
    const double phi = WeightOf(i);
    return Line{line.slope * phi, line.intercept * phi};
  }

  // Minimized upper envelope of the lines of items s..e on grid segment l.
  EnvelopeMin SegmentEnvelopeMin(std::size_t s, std::size_t e, std::size_t l,
                                 std::vector<Line>& lines,
                                 EnvelopeScratch& scratch) const;

  // The shared search: bracket on the grid with `envelope_at(l)`, then
  // minimize the envelope on the bracketing segments via `segment_min(l)`.
  template <typename EnvelopeAtFn, typename SegmentMinFn>
  BucketCost Optimize(const EnvelopeAtFn& envelope_at,
                      const SegmentMinFn& segment_min) const;

  std::shared_ptr<const PointErrorTables> tables_;
  bool relative_;
  std::vector<double> weights_;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_MAX_ORACLE_H_
