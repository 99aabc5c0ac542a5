#include "algo/group_adapter.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "api/session.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/generators.h"
#include "skyline/skyline.h"
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

TEST(GroupAdapterTest, ErasuresShrinkGroupSkylineBelowQuotaInSession) {
  // Group 1 starts with a 3-row skyline (T0, T1, T2) over a dominated
  // diagonal chain, and its quota is 3. Erasing T0, T2 and the chain's top
  // two rows leaves a 2-row live skyline, so G-Greedy must widen group 1 to
  // its live members, gathered after the erasures.
  Rng rng(31);
  std::vector<std::vector<double>> pts;
  std::vector<int> group_of;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform()});
    group_of.push_back(i % 2 == 0 ? 0 : 2);
  }
  const int t0 = static_cast<int>(pts.size());
  pts.push_back({0.95, 0.5});
  pts.push_back({0.5, 0.95});
  pts.push_back({0.8, 0.8});
  const int chain = static_cast<int>(pts.size());
  for (int i = 0; i < 11; ++i) {
    const double t = 0.7 - 0.05 * i;
    pts.push_back({t, t});
  }
  group_of.resize(pts.size(), 1);
  Dataset data = MakeDataset(pts);
  Grouping grouping = MakeGrouping(group_of, 3);

  auto session = SolverSession::CreateDynamic(&data, &grouping);
  ASSERT_TRUE(session.ok()) << session.status();
  auto bounds = GroupBounds::Explicit(7, {2, 3, 2}, {2, 3, 2});
  ASSERT_TRUE(bounds.ok());
  SolverRequest request;
  request.algorithm = "g_greedy";
  request.threads = 1;
  request.bounds = *bounds;
  ASSERT_EQ(ComputeGroupSkylines(data, grouping)[1].size(), 3u);
  ASSERT_TRUE(session->Solve(request).ok());  // Warm the cache first.

  const std::vector<int> erased = {t0, t0 + 2, chain, chain + 1};
  ASSERT_TRUE(session->Erase(erased).ok());
  const std::vector<int> live_sky = ComputeGroupSkylines(data, grouping)[1];
  ASSERT_EQ(live_sky.size(), 2u);

  auto warm = session->Solve(request);
  ASSERT_TRUE(warm.ok()) << warm.status();
  SolverRequest cold_req = request;
  cold_req.data = &data;
  cold_req.grouping = &grouping;
  auto cold = Solver::Solve(cold_req);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(warm->solution.rows, cold->solution.rows);
  EXPECT_EQ(warm->solution.mhr, cold->solution.mhr);
  EXPECT_EQ(warm->violations, 0);

  int widened = 0;
  for (int row : warm->solution.rows) {
    EXPECT_TRUE(data.live(static_cast<size_t>(row))) << "erased row " << row;
    if (grouping.group_of[static_cast<size_t>(row)] == 1 &&
        !std::binary_search(live_sky.begin(), live_sky.end(), row)) {
      ++widened;
    }
  }
  EXPECT_GE(widened, 1) << "group 1 was not widened past its skyline";
}

TEST(GroupAdapterTest, SessionComputesGroupSkylinesOnceAcrossPoolReaders) {
  // BiGreedy reads the fair pool; G-Greedy regroups the same pool into its
  // group skylines, so a session computes them once and then hits.
  Rng rng(41);
  const Dataset data = GenAntiCorrelated(3000, 3, &rng).NormalizedMinMax();
  const Grouping grouping = GroupBySumRank(data, 3);
  auto session = SolverSession::Create(&data, &grouping);
  ASSERT_TRUE(session.ok()) << session.status();
  SolverRequest request;
  request.threads = 1;
  request.bounds = GroupBounds::Proportional(9, grouping.Counts(), 0.2);

  request.algorithm = "bigreedy";
  ASSERT_TRUE(session->Solve(request).ok());
  CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.pools.misses, 1u);
  EXPECT_EQ(stats.pools.hits, 0u);

  request.algorithm = "g_greedy";
  auto warm = session->Solve(request);
  ASSERT_TRUE(warm.ok()) << warm.status();
  stats = session->cache_stats();
  EXPECT_EQ(stats.pools.misses, 1u);
  EXPECT_GE(stats.pools.hits, 1u);

  SolverRequest cold_req = request;
  cold_req.data = &data;
  cold_req.grouping = &grouping;
  auto cold = Solver::Solve(cold_req);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(warm->solution.rows, cold->solution.rows);
  EXPECT_EQ(warm->solution.mhr, cold->solution.mhr);
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
