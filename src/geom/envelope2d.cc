#include "geom/envelope2d.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fairhms {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

Envelope2D Envelope2D::Build(const std::vector<IndexedPoint2>& pts) {
  assert(!pts.empty());
  Envelope2D env;
  // The envelope owners are exactly the upper-right hull chain, ordered by
  // decreasing x / increasing y; walking it in *reverse* (max-y first) gives
  // the active lines for lambda from 0 to 1.
  std::vector<IndexedPoint2> chain = UpperRightHull(pts);
  std::reverse(chain.begin(), chain.end());  // Now y decreasing, x increasing.

  double cur = 0.0;
  for (size_t i = 0; i < chain.size(); ++i) {
    const double a = chain[i].y;
    const double b = chain[i].x - chain[i].y;
    double hi = 1.0;
    if (i + 1 < chain.size()) {
      const double a2 = chain[i + 1].y;
      const double b2 = chain[i + 1].x - chain[i + 1].y;
      const double denom = b2 - b;  // > 0: slopes strictly increase.
      if (denom > kEps) {
        hi = (a - a2) / denom;
      } else {
        hi = cur;  // Degenerate; next line takes over immediately.
      }
      hi = std::clamp(hi, cur, 1.0);
    }
    if (hi >= cur) {
      env.pieces_.push_back({cur, hi, a, b, chain[i].index});
      cur = hi;
    }
    if (cur >= 1.0) break;
  }
  // Ensure coverage up to 1 even with numeric clamping.
  if (!env.pieces_.empty()) env.pieces_.back().hi = 1.0;
  return env;
}

int Envelope2D::ArgMaxPieceIndex(double lambda) const {
  assert(!pieces_.empty());
  // First piece whose hi >= lambda.
  int lo = 0;
  int hi = static_cast<int>(pieces_.size()) - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (pieces_[static_cast<size_t>(mid)].hi >= lambda) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double Envelope2D::Eval(double lambda) const {
  lambda = std::clamp(lambda, 0.0, 1.0);
  const Piece& p = pieces_[static_cast<size_t>(ArgMaxPieceIndex(lambda))];
  return p.intercept + p.slope * lambda;
}

int Envelope2D::ArgMax(double lambda) const {
  lambda = std::clamp(lambda, 0.0, 1.0);
  return pieces_[static_cast<size_t>(ArgMaxPieceIndex(lambda))].point_index;
}

std::vector<double> Envelope2D::Breakpoints() const {
  std::vector<double> bps;
  bps.reserve(pieces_.size() + 1);
  bps.push_back(0.0);
  for (const Piece& p : pieces_) bps.push_back(p.hi);
  bps.back() = 1.0;
  return bps;
}

bool Envelope2D::IntervalAbove(double x, double y, double tau, double* lo,
                               double* hi) const {
  const double line_a = y;
  const double line_b = x - y;
  bool found = false;
  double best_lo = 2.0;
  double best_hi = -1.0;
  for (const Piece& p : pieces_) {
    // Solve line_a + line_b*l >= tau*(p.intercept + p.slope*l) on [p.lo,p.hi]:
    //   c + m*l >= 0.
    const double c = line_a - tau * p.intercept;
    const double m = line_b - tau * p.slope;
    double seg_lo = p.lo;
    double seg_hi = p.hi;
    if (std::fabs(m) <= kEps) {
      if (c < -kEps) continue;  // Below on the whole piece.
    } else if (m > 0) {
      const double root = -c / m;
      if (root > seg_lo) seg_lo = root;
    } else {
      const double root = -c / m;
      if (root < seg_hi) seg_hi = root;
    }
    if (seg_lo <= seg_hi + kEps) {
      found = true;
      best_lo = std::min(best_lo, seg_lo);
      best_hi = std::max(best_hi, seg_hi);
    }
  }
  if (!found) return false;
  // line - tau*envelope is concave, so the union of per-piece solutions is
  // one interval; min/max accumulation reproduces it exactly. A piece
  // accepted only through the slack has its seg_lo past its seg_hi; when no
  // other piece widens the union, the line only touches tau * envelope and
  // the interval collapses to the point hi.
  best_lo = std::min(best_lo, best_hi);
  *lo = std::clamp(best_lo, 0.0, 1.0);
  *hi = std::clamp(best_hi, 0.0, 1.0);
  return true;
}

double MinHappinessRatio2D(const Envelope2D& env_d, const Envelope2D& env_s) {
  // On every common linear piece the ratio env_s / env_d is a Moebius
  // function of lambda, hence monotone; the minimum is attained at a
  // breakpoint of either envelope.
  std::vector<double> bps = env_d.Breakpoints();
  const std::vector<double> bps_s = env_s.Breakpoints();
  bps.insert(bps.end(), bps_s.begin(), bps_s.end());
  std::sort(bps.begin(), bps.end());
  double mhr = 1.0;
  for (double l : bps) {
    const double denom = env_d.Eval(l);
    const double num = env_s.Eval(l);
    double ratio;
    if (denom <= kEps) {
      ratio = 1.0;  // Degenerate direction: nobody scores anything.
    } else {
      ratio = num / denom;
    }
    mhr = std::min(mhr, ratio);
  }
  return std::max(0.0, mhr);
}

double MinHappinessRatio2D(const std::vector<IndexedPoint2>& pts,
                           const std::vector<int>& subset) {
  if (pts.empty() || subset.empty()) return 0.0;
  std::vector<IndexedPoint2> sub;
  sub.reserve(subset.size());
  for (int idx : subset) {
    assert(idx >= 0 && static_cast<size_t>(idx) < pts.size());
    sub.push_back(pts[static_cast<size_t>(idx)]);
  }
  const Envelope2D env_d = Envelope2D::Build(pts);
  const Envelope2D env_s = Envelope2D::Build(sub);
  return MinHappinessRatio2D(env_d, env_s);
}

}  // namespace fairhms
