#include "geom/convex_hull2d.h"

#include <algorithm>
#include <cmath>

namespace fairhms {

namespace {

/// Twice the signed area of triangle (o, a, b); > 0 for a left turn.
double Cross(const IndexedPoint2& o, const IndexedPoint2& a,
             const IndexedPoint2& b) {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

}  // namespace

std::vector<IndexedPoint2> UpperRightHull(std::vector<IndexedPoint2> pts) {
  if (pts.empty()) return pts;
  // Sort by x descending, y ascending; walk keeping right turns so that the
  // chain is concave when seen from above (slopes of consecutive edges
  // decrease as x grows).
  std::sort(pts.begin(), pts.end(), [](const IndexedPoint2& a,
                                       const IndexedPoint2& b) {
    if (a.x != b.x) return a.x > b.x;
    return a.y > b.y;
  });
  std::vector<IndexedPoint2> chain;
  for (const auto& p : pts) {
    // Skip points weakly dominated by the current chain tail (same x, lower
    // y handled by sort order; any y not above the tail cannot be maximal).
    if (!chain.empty() && p.y <= chain.back().y) continue;
    while (chain.size() >= 2) {
      const auto& a = chain[chain.size() - 2];
      const auto& b = chain[chain.size() - 1];
      // b must be a left turn on the path a -> p (seen from decreasing x);
      // otherwise b lies under segment (a, p) and is never a maximizer.
      if (Cross(a, b, p) <= 0) {
        chain.pop_back();
      } else {
        break;
      }
    }
    chain.push_back(p);
  }
  return chain;  // x decreasing, y increasing.
}

}  // namespace fairhms
