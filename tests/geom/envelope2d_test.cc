#include "geom/envelope2d.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairhms {
namespace {

std::vector<IndexedPoint2> RandomPts(Rng* rng, int n) {
  std::vector<IndexedPoint2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng->Uniform(), rng->Uniform(), i});
  }
  return pts;
}

double BruteEnvelope(const std::vector<IndexedPoint2>& pts, double l) {
  double best = -1.0;
  for (const auto& p : pts) best = std::max(best, p.y + (p.x - p.y) * l);
  return best;
}

TEST(Envelope2DTest, SinglePoint) {
  const Envelope2D env = Envelope2D::Build({{0.4, 0.8, 7}});
  EXPECT_DOUBLE_EQ(env.Eval(0.0), 0.8);
  EXPECT_DOUBLE_EQ(env.Eval(1.0), 0.4);
  EXPECT_DOUBLE_EQ(env.Eval(0.5), 0.6);
  EXPECT_EQ(env.ArgMax(0.3), 7);
}

TEST(Envelope2DTest, TwoCrossingLines) {
  // (1,0) wins at l=1, (0,1) wins at l=0; they cross at l=0.5.
  const Envelope2D env = Envelope2D::Build({{1, 0, 0}, {0, 1, 1}});
  EXPECT_EQ(env.ArgMax(0.0), 1);
  EXPECT_EQ(env.ArgMax(1.0), 0);
  EXPECT_NEAR(env.Eval(0.5), 0.5, 1e-12);
  ASSERT_EQ(env.pieces().size(), 2u);
  EXPECT_NEAR(env.pieces()[0].hi, 0.5, 1e-12);
}

TEST(Envelope2DTest, MatchesBruteForceOnRandomInputs) {
  Rng rng(42);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pts = RandomPts(&rng, 40);
    const Envelope2D env = Envelope2D::Build(pts);
    for (int t = 0; t <= 200; ++t) {
      const double l = t / 200.0;
      EXPECT_NEAR(env.Eval(l), BruteEnvelope(pts, l), 1e-9)
          << "trial " << trial << " lambda " << l;
    }
  }
}

TEST(Envelope2DTest, BreakpointsSortedAndSpanUnitInterval) {
  Rng rng(5);
  const auto pts = RandomPts(&rng, 100);
  const Envelope2D env = Envelope2D::Build(pts);
  const auto bps = env.Breakpoints();
  ASSERT_GE(bps.size(), 2u);
  EXPECT_DOUBLE_EQ(bps.front(), 0.0);
  EXPECT_DOUBLE_EQ(bps.back(), 1.0);
  EXPECT_TRUE(std::is_sorted(bps.begin(), bps.end()));
}

TEST(Envelope2DTest, IntervalAboveFullEnvelopeOwner) {
  // The envelope owner at tau=1 is above on exactly its own piece.
  const Envelope2D env = Envelope2D::Build({{1, 0, 0}, {0, 1, 1}});
  double lo, hi;
  ASSERT_TRUE(env.IntervalAbove(1.0, 0.0, 1.0, &lo, &hi));
  EXPECT_NEAR(lo, 0.5, 1e-9);
  EXPECT_NEAR(hi, 1.0, 1e-9);
}

TEST(Envelope2DTest, IntervalAboveEmptyForWeakPoint) {
  const Envelope2D env = Envelope2D::Build({{1, 0, 0}, {0, 1, 1}});
  double lo, hi;
  // (0.1, 0.1) scores 0.1 everywhere; envelope min is 0.5.
  EXPECT_FALSE(env.IntervalAbove(0.1, 0.1, 0.9, &lo, &hi));
  // But at tau = 0.15 it clears 0.15*envelope around the middle.
  ASSERT_TRUE(env.IntervalAbove(0.1, 0.1, 0.15, &lo, &hi));
  EXPECT_LT(lo, hi);
}

TEST(Envelope2DTest, IntervalAboveMatchesDenseScan) {
  Rng rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    const auto pts = RandomPts(&rng, 25);
    const Envelope2D env = Envelope2D::Build(pts);
    const double tau = 0.5 + 0.5 * rng.Uniform();
    const IndexedPoint2 q{rng.Uniform(), rng.Uniform(), -1};
    double lo, hi;
    const bool has = env.IntervalAbove(q.x, q.y, tau, &lo, &hi);
    // Dense scan.
    double scan_lo = 2.0, scan_hi = -1.0;
    for (int t = 0; t <= 2000; ++t) {
      const double l = t / 2000.0;
      const double line = q.y + (q.x - q.y) * l;
      if (line >= tau * env.Eval(l) - 1e-12) {
        scan_lo = std::min(scan_lo, l);
        scan_hi = std::max(scan_hi, l);
      }
    }
    if (!has) {
      EXPECT_GT(scan_lo, scan_hi);  // Scan found nothing either.
    } else {
      EXPECT_NEAR(lo, scan_lo, 1e-3);
      EXPECT_NEAR(hi, scan_hi, 1e-3);
    }
  }
}

/// Up to five points near (0.4, 0.6) or (0.5, 0.5), each coordinate nudged
/// by a multiple of 1e-13: nearly parallel lines whose crossings round, so
/// some rows clear tau * envelope only through IntervalAbove's slack.
std::vector<IndexedPoint2> NearlyParallelPts(Rng* rng) {
  const int n = 2 + static_cast<int>(rng->Uniform() * 4);
  std::vector<IndexedPoint2> pts;
  for (int i = 0; i < n; ++i) {
    const bool upper = rng->Uniform() < 0.5;
    const double ex = (static_cast<int>(rng->Uniform() * 7) - 3) * 1e-13;
    const double ey = (static_cast<int>(rng->Uniform() * 7) - 3) * 1e-13;
    pts.push_back({(upper ? 0.4 : 0.5) + ex, (upper ? 0.6 : 0.5) + ey, i});
  }
  return pts;
}

TEST(Envelope2DTest, IntervalAboveSlackTouchIsAPoint) {
  // Found by the search below (seed 2024, trial 372). The row clears the
  // envelope only through the slack: the first piece's root lies past that
  // piece's end, so the union was once returned as [0.50000000000025013,
  // 0.50000000000000011]. It collapses to the point hi.
  const Envelope2D env =
      Envelope2D::Build({{0.50000000000029998, 0.49999999999979999, 0},
                         {0.49999999999970002, 0.50000000000029998, 1},
                         {0.49999999999979999, 0.49999999999979999, 2},
                         {0.4000000000003, 0.59999999999980003, 3}});
  ASSERT_EQ(env.pieces().size(), 2u);
  EXPECT_EQ(env.pieces()[0].hi, 0.50000000000000011);
  double lo, hi;
  ASSERT_TRUE(env.IntervalAbove(0.49999999999970002, 0.50000000000029998,
                                1.0, &lo, &hi));
  EXPECT_EQ(lo, 0.50000000000000011);
  EXPECT_EQ(hi, 0.50000000000000011);
}

TEST(Envelope2DTest, IntervalAboveNeverInvertsOnNearlyParallelLines) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<IndexedPoint2> pts = NearlyParallelPts(&rng);
    const Envelope2D env = Envelope2D::Build(pts);
    for (const IndexedPoint2& q : pts) {
      for (const double tau : {1.0, 1.0 - 1e-13, 0.999}) {
        double lo, hi;
        if (env.IntervalAbove(q.x, q.y, tau, &lo, &hi)) {
          EXPECT_LE(lo, hi) << "trial " << trial << " row " << q.index
                            << " tau " << tau;
        }
      }
    }
  }
}

TEST(MinHappinessRatio2DTest, FullSetHasRatioOne) {
  Rng rng(3);
  const auto pts = RandomPts(&rng, 30);
  std::vector<int> all;
  for (int i = 0; i < 30; ++i) all.push_back(i);
  EXPECT_NEAR(MinHappinessRatio2D(pts, all), 1.0, 1e-12);
}

TEST(MinHappinessRatio2DTest, EmptySubsetIsZero) {
  Rng rng(3);
  const auto pts = RandomPts(&rng, 10);
  EXPECT_DOUBLE_EQ(MinHappinessRatio2D(pts, {}), 0.0);
}

TEST(MinHappinessRatio2DTest, MatchesDenseGrid) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomPts(&rng, 20);
    std::vector<int> subset;
    for (int i = 0; i < 20; ++i) {
      if (rng.Bernoulli(0.3)) subset.push_back(i);
    }
    if (subset.empty()) subset.push_back(0);
    const double exact = MinHappinessRatio2D(pts, subset);
    // Dense grid lower-bounds the true minimum gap; exact must be <= grid
    // and close to it.
    double grid = 1.0;
    const Envelope2D env = Envelope2D::Build(pts);
    std::vector<IndexedPoint2> sub;
    for (int i : subset) sub.push_back(pts[static_cast<size_t>(i)]);
    const Envelope2D env_s = Envelope2D::Build(sub);
    for (int t = 0; t <= 5000; ++t) {
      const double l = t / 5000.0;
      grid = std::min(grid, env_s.Eval(l) / env.Eval(l));
    }
    EXPECT_LE(exact, grid + 1e-9);
    EXPECT_NEAR(exact, grid, 1e-4);
  }
}

TEST(MinHappinessRatio2DTest, MonotoneInSubset) {
  Rng rng(31);
  const auto pts = RandomPts(&rng, 25);
  std::vector<int> small = {0, 1, 2};
  std::vector<int> big = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_LE(MinHappinessRatio2D(pts, small),
            MinHappinessRatio2D(pts, big) + 1e-12);
}

}  // namespace
}  // namespace fairhms
