#include "core/point_error.h"

#include <algorithm>

#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace probsyn {

PointErrorTables::PointErrorTables(const ValuePdfInput& input, double sanity_c,
                                   ThreadPool* pool)
    : n_(input.domain_size()), c_(sanity_c), grid_(input.ValueGrid()) {
  grid_size_ = grid_.size();
  m1_.resize(n_);
  m2_.resize(n_);
  x_.resize(n_);
  y_.resize(n_);
  z_.resize(n_);
  cw_abs_.assign(n_ * grid_size_, 0.0);
  cwv_abs_.assign(n_ * grid_size_, 0.0);
  cw_rel_.assign(n_ * grid_size_, 0.0);
  cwv_rel_.assign(n_ * grid_size_, 0.0);

  // Every item fills disjoint table rows against the shared read-only
  // grid, so the O(n |V|) preprocessing is a clean parallel-for.
  auto fill_items = [&](std::size_t item_begin, std::size_t item_end) {
  for (std::size_t i = item_begin; i < item_end; ++i) {
    const ValuePdf& pdf = input.item(i);
    m1_[i] = pdf.Mean();
    m2_[i] = pdf.SecondMoment();
    KahanSum x, y, z;
    for (const ValueProb& e : pdf.entries()) {
      double w2 = SquaredRelativeWeight(e.value, c_);
      x.Add(e.probability * w2 * e.value * e.value);
      y.Add(e.probability * w2 * e.value);
      z.Add(e.probability * w2);
    }
    x_[i] = x.value();
    y_[i] = y.value();
    z_[i] = z.value();

    // Fill the grid-indexed cumulative weight tables. The item's support is
    // a subset of the grid; walk both in lockstep.
    double* cw_abs = &cw_abs_[i * grid_size_];
    double* cwv_abs = &cwv_abs_[i * grid_size_];
    double* cw_rel = &cw_rel_[i * grid_size_];
    double* cwv_rel = &cwv_rel_[i * grid_size_];
    std::size_t entry = 0;
    double acc_w = 0.0, acc_wv = 0.0, acc_rw = 0.0, acc_rwv = 0.0;
    for (std::size_t l = 0; l < grid_size_; ++l) {
      if (entry < pdf.size() && pdf.entries()[entry].value == grid_[l]) {
        const ValueProb& e = pdf.entries()[entry];
        double rw = RelativeWeight(e.value, c_);
        acc_w += e.probability;
        acc_wv += e.probability * e.value;
        acc_rw += e.probability * rw;
        acc_rwv += e.probability * rw * e.value;
        ++entry;
      }
      cw_abs[l] = acc_w;
      cwv_abs[l] = acc_wv;
      cw_rel[l] = acc_rw;
      cwv_rel[l] = acc_rwv;
    }
    PROBSYN_CHECK(entry == pdf.size());
  }
  };
  if (pool != nullptr) {
    preprocess_status_ = pool->ParallelFor(0, n_, fill_items);
  } else {
    fill_items(0, n_);
  }
}

std::size_t PointErrorTables::SegmentOf(double v) const {
  // Largest l with grid_[l] <= v.
  auto it = std::upper_bound(grid_.begin(), grid_.end(), v);
  if (it == grid_.begin()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - grid_.begin()) - 1;
}

double PointErrorTables::SquaredError(std::size_t i, double v) const {
  return ClampTinyNegative(m2_[i] - 2.0 * v * m1_[i] + v * v);
}

double PointErrorTables::SquaredRelativeError(std::size_t i, double v) const {
  return ClampTinyNegative(x_[i] - 2.0 * v * y_[i] + v * v * z_[i]);
}

double PointErrorTables::AbsErrorImpl(std::size_t i, double v,
                                      bool relative) const {
  std::size_t l = SegmentOf(v);
  Line line = AbsoluteErrorLine(i, l, relative);
  return std::max(0.0, line.At(v));
}

double PointErrorTables::AbsoluteError(std::size_t i, double v) const {
  return AbsErrorImpl(i, v, /*relative=*/false);
}

double PointErrorTables::AbsoluteRelativeError(std::size_t i, double v) const {
  return AbsErrorImpl(i, v, /*relative=*/true);
}

double PointErrorTables::ExpectedPointError(ErrorMetric metric, std::size_t i,
                                            double v) const {
  switch (metric) {
    case ErrorMetric::kSse:
      return SquaredError(i, v);
    case ErrorMetric::kSsre:
      return SquaredRelativeError(i, v);
    case ErrorMetric::kSae:
    case ErrorMetric::kMae:
      return AbsoluteError(i, v);
    case ErrorMetric::kSare:
    case ErrorMetric::kMare:
      return AbsoluteRelativeError(i, v);
  }
  return 0.0;
}

}  // namespace probsyn
