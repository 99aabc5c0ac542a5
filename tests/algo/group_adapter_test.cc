#include "algo/group_adapter.h"

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "common/random.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

BaseSolver GreedySolver() {
  return [](const Dataset& data, const std::vector<int>& rows, int k) {
    return RdpGreedyRows(data, rows, k);
  };
}

TEST(GroupAdapterTest, UnionHasSizeKAndZeroViolations) {
  Rng rng(1);
  const Dataset data = GenAntiCorrelated(400, 3, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(9, g.Counts(), 0.2);
  auto sol = GroupAdapt(GreedySolver(), "Greedy", data, g, bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 9u);
  EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0);
  EXPECT_EQ(sol->algorithm, "G-Greedy");
}

TEST(GroupAdapterTest, QuotasProportionalToGroupSizes) {
  Rng rng(2);
  // 80/20 split; with k = 10 the large group should get the bigger share.
  Dataset data(2);
  data.AddCategoricalColumn("g", {"big", "small"});
  for (int i = 0; i < 400; ++i) {
    data.AddRow({rng.Uniform(), rng.Uniform()}, {0});
  }
  for (int i = 0; i < 100; ++i) {
    data.AddRow({rng.Uniform(), rng.Uniform()}, {1});
  }
  auto g = GroupByCategorical(data, "g");
  ASSERT_TRUE(g.ok());
  const GroupBounds bounds = GroupBounds::Proportional(10, g->Counts(), 0.1);
  auto sol = GroupAdapt(GreedySolver(), "Greedy", data, *g, bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  const auto counts = SolutionGroupCounts(sol->rows, *g);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_EQ(counts[0] + counts[1], 10);
}

TEST(GroupAdapterTest, PropagatesBaseFailure) {
  // Sphere needs k_c >= d; with d = 5 and per-group quotas of ~2, G-Sphere
  // must fail — reproducing the missing bars in the paper's plots.
  Rng rng(3);
  const Dataset data = GenIndependent(500, 5, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const GroupBounds bounds = GroupBounds::Proportional(8, g.Counts(), 0.1);
  BaseSolver sphere = [](const Dataset& d, const std::vector<int>& rows,
                         int k) { return SphereRows(d, rows, k); };
  auto sol = GroupAdapt(sphere, "Sphere", data, g, bounds);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);
}

TEST(GroupAdapterTest, SmallGroupSkylineWidenedToMembers) {
  // Group 1 has 3 identical dominated points: its skyline has 1 entry but
  // the quota may require more; the adapter must widen to all members.
  const Dataset data = MakeDataset({{1.0, 0.0},
                                    {0.0, 1.0},
                                    {0.9, 0.9},
                                    {0.5, 0.5},
                                    {0.5, 0.5},
                                    {0.5, 0.4}});
  const Grouping g = MakeGrouping({0, 0, 0, 1, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(4, {2, 2}, {2, 2});
  ASSERT_TRUE(bounds.ok());
  auto sol = GroupAdapt(GreedySolver(), "Greedy", data, g, *bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 4u);
  EXPECT_EQ(CountViolations(sol->rows, g, *bounds), 0);
}

TEST(GroupAdapterTest, MismatchedInputsRejected) {
  const Dataset data = MakeDataset({{1, 0}});
  const Grouping g = MakeGrouping({0, 0}, 1);
  auto bounds = GroupBounds::Explicit(1, {1}, {1});
  ASSERT_TRUE(bounds.ok());
  EXPECT_FALSE(GroupAdapt(GreedySolver(), "Greedy", data, g, *bounds).ok());
}

}  // namespace
}  // namespace fairhms
