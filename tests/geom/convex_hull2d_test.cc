#include "geom/convex_hull2d.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairhms {
namespace {

std::vector<IndexedPoint2> Pts(const std::vector<std::pair<double, double>>& v) {
  std::vector<IndexedPoint2> out;
  for (size_t i = 0; i < v.size(); ++i) {
    out.push_back({v[i].first, v[i].second, static_cast<int>(i)});
  }
  return out;
}

TEST(UpperRightHullTest, SimpleStaircase) {
  // (1,0) and (0,1) are the extremes; (0.9,0.9) dominates the middle.
  const auto chain =
      UpperRightHull(Pts({{1, 0}, {0, 1}, {0.9, 0.9}, {0.5, 0.5}}));
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_DOUBLE_EQ(chain.front().x, 1.0);  // Max-x first.
  EXPECT_DOUBLE_EQ(chain.back().y, 1.0);   // Max-y last.
}

TEST(UpperRightHullTest, DominatedPointsExcluded) {
  const auto chain = UpperRightHull(Pts({{1, 1}, {0.5, 0.5}, {0.9, 0.2}}));
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_DOUBLE_EQ(chain[0].x, 1.0);
  EXPECT_DOUBLE_EQ(chain[0].y, 1.0);
}

TEST(UpperRightHullTest, PointUnderSegmentExcluded) {
  // (0.5, 0.45) lies under the segment (1,0)-(0,1).
  const auto chain = UpperRightHull(Pts({{1, 0}, {0, 1}, {0.5, 0.45}}));
  EXPECT_EQ(chain.size(), 2u);
}

TEST(UpperRightHullTest, PointAboveSegmentIncluded) {
  const auto chain = UpperRightHull(Pts({{1, 0}, {0, 1}, {0.6, 0.6}}));
  EXPECT_EQ(chain.size(), 3u);
}

TEST(UpperRightHullTest, ChainIsMonotone) {
  Rng rng(99);
  std::vector<IndexedPoint2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform(), i});
  }
  const auto chain = UpperRightHull(pts);
  for (size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i].x, chain[i - 1].x);
    EXPECT_GT(chain[i].y, chain[i - 1].y);
  }
}

// Property: every point is, for every direction (l, 1-l), weakly beaten by
// some chain member — the chain contains all maximizers.
TEST(UpperRightHullTest, ChainContainsAllMaximizers) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<IndexedPoint2> pts;
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.Uniform(), rng.Uniform(), i});
    }
    const auto chain = UpperRightHull(pts);
    for (int t = 0; t <= 100; ++t) {
      const double l = t / 100.0;
      double best_all = -1.0;
      for (const auto& p : pts) best_all = std::max(best_all, l * p.x + (1 - l) * p.y);
      double best_chain = -1.0;
      for (const auto& p : chain) {
        best_chain = std::max(best_chain, l * p.x + (1 - l) * p.y);
      }
      EXPECT_NEAR(best_chain, best_all, 1e-12);
    }
  }
}

TEST(UpperRightHullTest, IndicesPreserved) {
  const auto chain = UpperRightHull(Pts({{0.2, 0.2}, {1, 0}, {0, 1}}));
  std::set<int> idx;
  for (const auto& p : chain) idx.insert(p.index);
  EXPECT_TRUE(idx.count(1));
  EXPECT_TRUE(idx.count(2));
  EXPECT_FALSE(idx.count(0));
}

}  // namespace
}  // namespace fairhms
