#include "core/max_oracle.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/search.h"

namespace probsyn {

MaxErrorOracle::MaxErrorOracle(std::shared_ptr<const PointErrorTables> tables,
                               bool relative, std::vector<double> weights)
    : tables_(std::move(tables)),
      relative_(relative),
      weights_(std::move(weights)) {
  PROBSYN_CHECK(tables_ != nullptr);
  PROBSYN_CHECK(weights_.empty() || weights_.size() == tables_->domain_size());
}

std::size_t MaxErrorOracle::domain_size() const {
  return tables_->domain_size();
}

double MaxErrorOracle::EnvelopeAt(std::size_t s, std::size_t e,
                                  double v) const {
  double worst = 0.0;
  for (std::size_t i = s; i <= e; ++i) {
    double err = relative_ ? tables_->AbsoluteRelativeError(i, v)
                           : tables_->AbsoluteError(i, v);
    worst = std::max(worst, WeightOf(i) * err);
  }
  return worst;
}

EnvelopeMin MaxErrorOracle::SegmentEnvelopeMin(std::size_t s, std::size_t e,
                                               std::size_t l,
                                               std::vector<Line>& lines,
                                               EnvelopeScratch& scratch) const {
  const std::vector<double>& grid = tables_->grid();
  lines.clear();
  for (std::size_t i = s; i <= e; ++i) lines.push_back(WeightedLine(i, l));
  return MinimizeUpperEnvelope(lines, grid[l], grid[l + 1], scratch);
}

template <typename EnvelopeAtFn, typename SegmentMinFn>
BucketCost MaxErrorOracle::Optimize(const EnvelopeAtFn& envelope_at,
                                    const SegmentMinFn& segment_min) const {
  const std::vector<double>& grid = tables_->grid();
  // Bracket the optimum on the grid (the envelope is convex in bhat).
  const std::size_t l_star =
      TernarySearchMinIndexOver(std::size_t{0}, grid.size() - 1, envelope_at);

  // The continuous optimum lies in one of the two segments adjacent to
  // l_star. Within a segment every per-item curve is a line; minimize the
  // upper envelope of lines exactly. (Outside [v_0, v_{K-1}] every curve
  // only grows, so the outer rays never need searching.)
  BucketCost best{grid[l_star], envelope_at(l_star)};
  auto consider_segment = [&](std::size_t l) {
    const EnvelopeMin m = segment_min(l);
    if (m.value < best.cost) best = {m.x, m.value};
  };
  if (l_star > 0) consider_segment(l_star - 1);
  if (l_star + 1 < grid.size()) consider_segment(l_star);

  best.cost = std::max(0.0, best.cost);
  return best;
}

BucketCost MaxErrorOracle::Cost(std::size_t s, std::size_t e) const {
  PROBSYN_DCHECK(s <= e && e < domain_size());
  // Per-thread buffers keep the envelope step allocation-free after the
  // first call (Cost may run concurrently, e.g. in the approximate DP).
  thread_local std::vector<Line> lines;
  thread_local EnvelopeScratch scratch;
  return Optimize(
      [&](std::size_t l) {
        double worst = 0.0;
        for (std::size_t i = s; i <= e; ++i) {
          worst = std::max(worst, PointError(i, l));
        }
        return worst;
      },
      [&](std::size_t l) {
        return SegmentEnvelopeMin(s, e, l, lines, scratch);
      });
}

MaxErrorOracle::FlatSweep::FlatSweep(const MaxErrorOracle& oracle,
                                     std::size_t e)
    : oracle_(oracle), end_(e), next_start_(e) {
  const std::size_t grid_size = oracle.tables_->grid().size();
  env_.assign(grid_size, 0.0);
  env_from_.assign(grid_size, e + 1);
  seg_.resize(grid_size - 1);
  seg_from_.assign(grid_size - 1, e + 1);
}

double MaxErrorOracle::FlatSweep::EnvelopeAtIndex(std::size_t l) {
  double worst = env_[l];
  for (std::size_t& from = env_from_[l]; from > next_start_;) {
    --from;
    worst = std::max(worst, oracle_.PointError(from, l));
  }
  env_[l] = worst;
  return worst;
}

EnvelopeMin MaxErrorOracle::FlatSweep::SegmentMin(std::size_t l) {
  std::size_t& from = seg_from_[l];
  if (from == next_start_) return seg_[l];
  const double lo = oracle_.tables_->grid()[l];
  const double hi = oracle_.tables_->grid()[l + 1];
  bool rebuild = from > end_;  // nothing cached yet
  while (!rebuild && from > next_start_) {
    // The new line leaves the segment's result as is when it lies strictly
    // below a line that never exceeds the envelope on the segment: the
    // constant at the minimum, or the envelope's active line at the
    // minimizer. A line is below another on the segment iff it is below
    // at both ends.
    const EnvelopeMin& cached = seg_[l];
    const Line line = oracle_.WeightedLine(from - 1, l);
    const double at_lo = line.At(lo);
    const double at_hi = line.At(hi);
    if ((at_lo < cached.value && at_hi < cached.value) ||
        (at_lo < cached.line.At(lo) && at_hi < cached.line.At(hi))) {
      --from;
    } else {
      rebuild = true;
    }
  }
  if (rebuild) {
    seg_[l] = oracle_.SegmentEnvelopeMin(next_start_, end_, l, lines_,
                                         scratch_);
  }
  from = next_start_;
  return seg_[l];
}

BucketCost MaxErrorOracle::FlatSweep::Extend() {
  PROBSYN_DCHECK(next_start_ <= end_ && end_ < oracle_.domain_size());
  const BucketCost result = oracle_.Optimize(
      [this](std::size_t l) { return EnvelopeAtIndex(l); },
      [this](std::size_t l) { return SegmentMin(l); });
  if (next_start_ > 0) --next_start_;
  return result;
}

namespace {

// Virtual adapter over FlatSweep, so the reference (virtual-dispatch) DP
// path and the devirtualized kernel run the identical sweep.
class MaxSweepAdapter final : public BucketCostOracle::Sweep {
 public:
  MaxSweepAdapter(const MaxErrorOracle& oracle, std::size_t e)
      : sweep_(oracle, e) {}
  BucketCost Extend() override { return sweep_.Extend(); }

 private:
  MaxErrorOracle::FlatSweep sweep_;
};

}  // namespace

std::unique_ptr<BucketCostOracle::Sweep> MaxErrorOracle::StartSweep(
    std::size_t e) const {
  return std::make_unique<MaxSweepAdapter>(*this, e);
}

}  // namespace probsyn
