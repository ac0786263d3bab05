#include "util/envelope.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace probsyn {

namespace {

// x-coordinate where two (non-parallel) lines intersect.
double IntersectX(const Line& a, const Line& b) {
  return (b.intercept - a.intercept) / (a.slope - b.slope);
}

}  // namespace

EnvelopeMin MinimizeUpperEnvelope(std::span<const Line> lines, double lo,
                                  double hi) {
  EnvelopeScratch scratch;
  return MinimizeUpperEnvelope(lines, lo, hi, scratch);
}

EnvelopeMin MinimizeUpperEnvelope(std::span<const Line> lines, double lo,
                                  double hi, EnvelopeScratch& scratch) {
  PROBSYN_CHECK(!lines.empty());
  PROBSYN_CHECK(lo <= hi);

  // Sort by slope; among equal slopes only the highest intercept can be on
  // the upper envelope, so keep the first line of each slope run.
  std::vector<Line>& sorted = scratch.sorted;
  sorted.assign(lines.begin(), lines.end());
  std::sort(sorted.begin(), sorted.end(), [](const Line& a, const Line& b) {
    if (a.slope != b.slope) return a.slope < b.slope;
    return a.intercept > b.intercept;
  });
  std::size_t kept = 0;
  for (const Line& l : sorted) {
    if (kept == 0 || sorted[kept - 1].slope != l.slope) sorted[kept++] = l;
  }
  sorted.resize(kept);

  // Build the upper envelope (convex) with a monotone stack. hull[i] is
  // active on [knot[i], knot[i+1]); knots are the pairwise intersections.
  std::vector<Line>& hull = scratch.hull;
  std::vector<double>& knots = scratch.knots;  // knots[0] = -inf.
  hull.clear();
  knots.clear();
  for (const Line& l : sorted) {
    double start = -std::numeric_limits<double>::infinity();
    while (!hull.empty()) {
      start = IntersectX(hull.back(), l);
      // New line overtakes hull.back() for x >= start (its slope is
      // larger). If it already dominates at hull.back()'s start, pop.
      if (start <= knots.back()) {
        hull.pop_back();
        knots.pop_back();
        start = -std::numeric_limits<double>::infinity();
      } else {
        break;
      }
    }
    if (hull.empty()) start = -std::numeric_limits<double>::infinity();
    hull.push_back(l);
    knots.push_back(start);
  }

  // The envelope is convex, so its restriction to [lo, hi] attains its
  // minimum at lo, at hi, or at an interior knot.
  auto eval = [&](double x) {
    // Find the active hull segment: last knot <= x.
    auto it = std::upper_bound(knots.begin(), knots.end(), x);
    std::size_t idx = static_cast<std::size_t>(it - knots.begin());
    PROBSYN_DCHECK(idx >= 1);
    const Line& active = hull[idx - 1];
    return EnvelopeMin{x, active.At(x), active};
  };

  EnvelopeMin best = eval(lo);
  EnvelopeMin at_hi = eval(hi);
  if (at_hi.value < best.value) best = at_hi;
  for (double k : knots) {
    if (k > lo && k < hi) {
      EnvelopeMin at_k = eval(k);
      if (at_k.value < best.value) best = at_k;
    }
  }
  return best;
}

}  // namespace probsyn
