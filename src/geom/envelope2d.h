// Upper envelope of score lines in utility-parameter space (2D datasets).
//
// For d = 2 every nonnegative linear utility can be written u = (l, 1 - l)
// with l in [0, 1] (l1-normalized; happiness ratios are normalization
// invariant). A point p = (x, y) then scores f_l(p) = y + (x - y) * l, a line
// in l. The pointwise maximum over a point set is a piecewise-linear convex
// function: the *upper envelope*. The envelope underlies
//   * IntCov's tau-envelope / interval construction (Sec. 3 of the paper),
//   * the exact 2D minimum-happiness-ratio evaluator.

#ifndef FAIRHMS_GEOM_ENVELOPE2D_H_
#define FAIRHMS_GEOM_ENVELOPE2D_H_

#include <vector>

#include "geom/convex_hull2d.h"

namespace fairhms {

/// Piecewise-linear convex upper envelope over lambda in [0, 1].
class Envelope2D {
 public:
  /// One maximal lambda-interval on which a single point's line is the
  /// envelope. value(lambda) = intercept + slope * lambda.
  struct Piece {
    double lo;        ///< Piece start (inclusive).
    double hi;        ///< Piece end (inclusive).
    double intercept; ///< The owning point's y coordinate.
    double slope;     ///< x - y of the owning point.
    int point_index;  ///< Caller-supplied index of the owning point.
  };

  /// Builds the envelope of the given points. `pts` must be non-empty.
  /// Indices inside IndexedPoint2 are preserved into Piece::point_index.
  static Envelope2D Build(const std::vector<IndexedPoint2>& pts);

  /// Envelope value at lambda (clamped to [0, 1]).
  double Eval(double lambda) const;

  /// Index of the point whose line is maximal at lambda.
  int ArgMax(double lambda) const;

  const std::vector<Piece>& pieces() const { return pieces_; }

  /// All piece boundaries, including 0 and 1, ascending.
  std::vector<double> Breakpoints() const;

  /// Computes the maximal lambda-interval [*lo, *hi] on which the line of
  /// point (x, y) lies on or above tau * envelope, with *lo <= *hi. Returns
  /// false when the line is strictly below everywhere in [0, 1]. (line -
  /// tau * envelope is concave, so the feasible set is a single interval; a
  /// line that only touches it within the 1e-12 slack gets a point.)
  bool IntervalAbove(double x, double y, double tau, double* lo,
                     double* hi) const;

 private:
  /// Index into pieces_ of the piece active at lambda.
  int ArgMaxPieceIndex(double lambda) const;

  std::vector<Piece> pieces_;
};

/// Exact 2D minimum happiness ratio of a subset envelope `env_s` against the
/// full-database envelope `env_d`:  min over lambda of env_s / env_d.
/// Both envelopes must be built over the same normalized attribute space and
/// env_s must come from a subset (env_s <= env_d pointwise).
double MinHappinessRatio2D(const Envelope2D& env_d, const Envelope2D& env_s);

/// Convenience: exact 2D mhr of the subset `subset` (indices into `pts`).
/// Returns 0 for an empty subset.
double MinHappinessRatio2D(const std::vector<IndexedPoint2>& pts,
                           const std::vector<int>& subset);

}  // namespace fairhms

#endif  // FAIRHMS_GEOM_ENVELOPE2D_H_
