// Cross-module robustness and consistency properties that don't belong to a
// single unit: exactness dominance (IntCov upper-bounds every heuristic),
// forced useless groups, degenerate geometry, option overrides.

#include <numeric>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/bigreedy.h"
#include "algo/fair_greedy.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

// IntCov is exact, so every heuristic's (exactly evaluated) mhr must be <=
// IntCov's on the same instance.
TEST(RobustnessTest, IntCovDominatesHeuristicsOn2D) {
  Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    const Dataset data = GenAntiCorrelated(120, 2, &rng);
    const Grouping g = GroupBySumRank(data, 2 + trial % 2);
    const GroupBounds bounds =
        GroupBounds::Proportional(5 + trial % 3, g.Counts(), 0.2);
    const auto sky = ComputeSkyline(data);

    auto exact = IntCov(data, g, bounds);
    ASSERT_TRUE(exact.ok()) << exact.status();
    auto bg = BiGreedy(data, g, bounds);
    ASSERT_TRUE(bg.ok());
    auto fg = FairGreedy(data, g, bounds);
    ASSERT_TRUE(fg.ok());

    const double tol = 1e-7;
    EXPECT_LE(MhrExact2D(data, sky, bg->rows), exact->mhr + tol);
    EXPECT_LE(MhrExact2D(data, sky, fg->rows), exact->mhr + tol);
  }
}

// A group whose points are all deeply dominated still must contribute when
// its lower bound forces it; the optimum on the useful groups is preserved.
TEST(RobustnessTest, ForcedUselessGroupHandled) {
  const Dataset data = MakeDataset({{1.0, 0.0},
                                    {0.0, 1.0},
                                    {0.7, 0.7},
                                    {0.01, 0.01},
                                    {0.02, 0.01},
                                    {0.01, 0.02}});
  const Grouping g = MakeGrouping({0, 0, 0, 1, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(4, {3, 1}, {3, 1});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  const auto counts = SolutionGroupCounts(sol->rows, g);
  EXPECT_EQ(counts, (std::vector<int>{3, 1}));
  // The three useful points are all selected -> mhr = 1 despite the junk
  // group member.
  EXPECT_NEAR(sol->mhr, 1.0, 1e-9);
}

TEST(RobustnessTest, AllIdenticalPoints) {
  const Dataset data = MakeDataset({{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}});
  const Grouping g = SingleGroup(3);
  auto bounds = GroupBounds::Explicit(2, {0}, {2});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 2u);
  EXPECT_NEAR(sol->mhr, 1.0, 1e-9);
  auto bg = BiGreedy(data, g, *bounds);
  ASSERT_TRUE(bg.ok());
  EXPECT_EQ(bg->rows.size(), 2u);
}

TEST(RobustnessTest, CollinearPointsOnDiagonal) {
  // All points on the anti-diagonal: every point is a skyline point, any
  // single endpoint pair covers the envelope.
  const Dataset data = MakeDataset(
      {{1.0, 0.0}, {0.75, 0.25}, {0.5, 0.5}, {0.25, 0.75}, {0.0, 1.0}});
  const Grouping g = SingleGroup(5);
  EXPECT_EQ(ComputeSkyline(data).size(), 5u);
  auto bounds = GroupBounds::Explicit(2, {0}, {2});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  // {(1,0), (0,1)} is optimal; the midpoints lie on the chord.
  EXPECT_EQ(sol->rows, (std::vector<int>{0, 4}));
}

TEST(RobustnessTest, TinyNetStillProducesFairSolution) {
  Rng rng(104);
  const Dataset data = GenAntiCorrelated(200, 4, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(9, g.Counts(), 0.2);
  BiGreedyOptions opts;
  opts.net_size = 4;  // Absurdly coarse net.
  auto sol = BiGreedy(data, g, bounds, opts);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 9u);
  EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0);
}

TEST(RobustnessTest, SkylinePrefilterPathIsExact) {
  Rng rng(105);
  const Dataset data = GenIndependent(300, 3, &rng);
  SkylineOptions with_prefilter;
  with_prefilter.prefilter_sample = 32;  // Forces the prefilter code path.
  const auto a = ComputeSkyline(data, with_prefilter);
  SkylineOptions no_prefilter;
  no_prefilter.prefilter_sample = 100000;  // Sample covers everything.
  const auto b = ComputeSkyline(data, no_prefilter);
  EXPECT_EQ(a, b);
}

TEST(RobustnessTest, DmmMatchesIntCovBallparkOn2D) {
  Rng rng(106);
  const Dataset data = GenAntiCorrelated(300, 2, &rng);
  const auto sky = ComputeSkyline(data);
  const Grouping single = SingleGroup(data.size());
  auto bounds = GroupBounds::Explicit(6, {0}, {6});
  ASSERT_TRUE(bounds.ok());
  auto exact = IntCov(data, single, *bounds);
  ASSERT_TRUE(exact.ok());
  auto dmm = DmmRows(data, sky, 6);
  ASSERT_TRUE(dmm.ok());
  const double dmm_mhr = MhrExact2D(data, sky, *dmm);
  EXPECT_LE(dmm_mhr, exact->mhr + 1e-9);
  EXPECT_GE(dmm_mhr, exact->mhr - 0.1);  // Coarse but not broken.
}

TEST(RobustnessTest, EvaluatorsAgreeAcrossEngines3D) {
  // LP-exact vs a fine net on small 3D instances: net upper-bounds and the
  // gap shrinks with net size (Lemma 4.1 in action).
  Rng rng(107);
  const Dataset data = GenAntiCorrelated(60, 3, &rng);
  const auto sky = ComputeSkyline(data);
  std::vector<int> sol;
  for (size_t i = 0; i < sky.size(); i += 6) sol.push_back(sky[i]);
  const double exact = MhrExactLp(data, sky, sol);
  double prev_gap = 1.0;
  for (size_t m : {200, 2000, 20000}) {
    Rng net_rng(9);
    const UtilityNet net = UtilityNet::SampleRandom(3, m, &net_rng);
    const NetEvaluator eval(&data, &net, sky);
    const double net_mhr = eval.Mhr(sol);
    const double gap = net_mhr - exact;
    EXPECT_GE(gap, -1e-9);
    EXPECT_LE(gap, prev_gap + 1e-9);
    prev_gap = gap;
  }
}

TEST(RobustnessTest, GroupCountOneBoundsEqualKReducesToVanilla) {
  // C=1, l=h=k: FairHMS == HMS (paper's reduction). IntCov with this
  // setting must equal IntCov with l=0.
  Rng rng(108);
  const Dataset data = GenIndependent(50, 2, &rng);
  const Grouping g = SingleGroup(50);
  auto tight = GroupBounds::Explicit(4, {4}, {4});
  auto loose = GroupBounds::Explicit(4, {0}, {4});
  ASSERT_TRUE(tight.ok() && loose.ok());
  auto st = IntCov(data, g, *tight);
  auto sl = IntCov(data, g, *loose);
  ASSERT_TRUE(st.ok() && sl.ok());
  EXPECT_NEAR(st->mhr, sl->mhr, 1e-9);
}

}  // namespace
}  // namespace fairhms
