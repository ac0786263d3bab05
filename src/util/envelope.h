#ifndef PROBSYN_UTIL_ENVELOPE_H_
#define PROBSYN_UTIL_ENVELOPE_H_

#include <span>
#include <vector>

namespace probsyn {

/// A univariate line y = slope * x + intercept.
struct Line {
  double slope = 0.0;
  double intercept = 0.0;

  double At(double x) const { return slope * x + intercept; }
};

/// Result of minimizing the upper envelope of a set of lines.
struct EnvelopeMin {
  double x = 0.0;      ///< argmin.
  double value = 0.0;  ///< min of max_i line_i(x).
  Line line;           ///< The envelope's active line at x: value = line.At(x).
};

/// Exactly minimizes max_i (a_i x + b_i) over x in [lo, hi].
///
/// This is the inner step of the MAE/MARE bucket oracle (paper section 3.6):
/// once the bracketing value segment [v_j', v_j'+1] is known, every item's
/// expected error is linear in b-hat, and the optimal representative is the
/// minimum of the (convex) upper envelope of those lines. The paper cites a
/// divide-and-conquer convex-hull method [15]; we build the envelope
/// directly with the classic sort-by-slope hull in O(k log k) and read the
/// minimum off its vertices — same result, simpler code.
///
/// Requires at least one line; lo <= hi.
EnvelopeMin MinimizeUpperEnvelope(std::span<const Line> lines, double lo,
                                  double hi);

/// Reusable working buffers of MinimizeUpperEnvelope. A caller that
/// minimizes many envelopes (the max-error oracle's bucket sweep) keeps one
/// and allocates nothing once it has grown to the largest line count.
struct EnvelopeScratch {
  std::vector<Line> sorted;
  std::vector<Line> hull;
  std::vector<double> knots;
};

/// Same computation as above (bit-identical result) over `scratch`.
EnvelopeMin MinimizeUpperEnvelope(std::span<const Line> lines, double lo,
                                  double hi, EnvelopeScratch& scratch);

}  // namespace probsyn

#endif  // PROBSYN_UTIL_ENVELOPE_H_
