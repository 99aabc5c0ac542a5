// The upper-right 2D hull chain: every maximizer of a nonnegative linear
// utility function (the owners of Envelope2D's pieces).

#ifndef FAIRHMS_GEOM_CONVEX_HULL2D_H_
#define FAIRHMS_GEOM_CONVEX_HULL2D_H_

#include <cstddef>
#include <vector>

namespace fairhms {

/// A 2D point with the index it came from in the caller's array.
struct IndexedPoint2 {
  double x;
  double y;
  int index;
};

/// The "upper-right" hull chain ordered by decreasing x / increasing y:
/// exactly the points that maximize lambda*x + (1-lambda)*y for some
/// lambda in [0,1]. These are the vertices whose score lines appear on the
/// upper envelope in lambda-space.
std::vector<IndexedPoint2> UpperRightHull(std::vector<IndexedPoint2> pts);

}  // namespace fairhms

#endif  // FAIRHMS_GEOM_CONVEX_HULL2D_H_
