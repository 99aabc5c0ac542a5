#include "algo/fair_greedy.h"

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(FairGreedyTest, SolutionFairAndSizeK) {
  Rng rng(1);
  const Dataset data = GenAntiCorrelated(300, 3, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(9, g.Counts(), 0.2);
  auto sol = FairGreedy(data, g, bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 9u);
  EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0);
  EXPECT_EQ(sol->algorithm, "F-Greedy");
  EXPECT_GT(sol->mhr, 0.0);
}

TEST(FairGreedyTest, MatchesRdpGreedyWhenUnconstrained) {
  // With C = 1 and loose bounds F-Greedy degenerates to RDP-Greedy's
  // selection rule; the solutions should have very similar quality.
  Rng rng(2);
  const Dataset data = GenAntiCorrelated(300, 3, &rng);
  const auto sky = ComputeSkyline(data);
  const Grouping g = SingleGroup(data.size());
  auto bounds = GroupBounds::Explicit(8, {0}, {8});
  ASSERT_TRUE(bounds.ok());
  auto fair = FairGreedy(data, g, *bounds);
  auto rdp = RdpGreedyRows(data, sky, 8);
  ASSERT_TRUE(fair.ok() && rdp.ok());
  EXPECT_NEAR(fair->mhr, MhrExactLp(data, sky, *rdp), 0.05);
}

TEST(FairGreedyTest, RespectsTightPerGroupBounds) {
  const Dataset data = MakeDataset(
      {{1, 0}, {0.95, 0.1}, {0, 1}, {0.1, 0.95}, {0.6, 0.6}, {0.5, 0.5}});
  const Grouping g = MakeGrouping({0, 0, 1, 1, 2, 2}, 3);
  auto bounds = GroupBounds::Explicit(3, {1, 1, 1}, {1, 1, 1});
  ASSERT_TRUE(bounds.ok());
  auto sol = FairGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  const auto counts = SolutionGroupCounts(sol->rows, g);
  EXPECT_EQ(counts, (std::vector<int>{1, 1, 1}));
}

TEST(FairGreedyTest, ZeroRegretEarlyStopStillFillsK) {
  // Two points suffice for zero regret; k = 4 must still be delivered.
  const Dataset data =
      MakeDataset({{1, 0}, {0, 1}, {0.3, 0.3}, {0.2, 0.2}, {0.1, 0.1}});
  const Grouping g = SingleGroup(5);
  auto bounds = GroupBounds::Explicit(4, {0}, {5});
  ASSERT_TRUE(bounds.ok());
  auto sol = FairGreedy(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->rows.size(), 4u);
  EXPECT_NEAR(sol->mhr, 1.0, 1e-9);
}

TEST(FairGreedyTest, DeterministicResults) {
  Rng rng(3);
  const Dataset data = GenIndependent(150, 4, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.1);
  auto s1 = FairGreedy(data, g, bounds);
  auto s2 = FairGreedy(data, g, bounds);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->rows, s2->rows);
}

TEST(FairGreedyTest, InfeasibleBoundsRejected) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const Grouping g = MakeGrouping({0, 0}, 1);
  auto bounds = GroupBounds::Explicit(3, {3}, {3});
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(FairGreedy(data, g, *bounds).status().code(),
            StatusCode::kInfeasible);
}

}  // namespace
}  // namespace fairhms
