#include "algo/algo_util.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "geom/vec.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(PrepareProblemTest, FillsDefaults) {
  Rng rng(1);
  const Dataset data = GenIndependent(100, 2, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  auto bounds = GroupBounds::Explicit(4, {1, 1}, {3, 3});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok()) << input.status();
  EXPECT_FALSE(input->pool.empty());
  EXPECT_FALSE(input->db_rows.empty());
  EXPECT_EQ(input->pool_by_group.size(), 2u);
  // Each pool row belongs to its listed group.
  for (int c = 0; c < 2; ++c) {
    for (int r : input->pool_by_group[static_cast<size_t>(c)]) {
      EXPECT_EQ(g.group_of[static_cast<size_t>(r)], c);
    }
  }
}

TEST(PrepareProblemTest, RejectsMismatchedGrouping) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const Grouping g = MakeGrouping({0}, 1);  // Wrong size.
  auto bounds = GroupBounds::Explicit(1, {1}, {1});
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(PrepareProblem(data, g, *bounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrepareProblemTest, RejectsGroupCountMismatch) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const Grouping g = MakeGrouping({0, 1}, 2);
  auto bounds = GroupBounds::Explicit(1, {1}, {1});  // 1 group only.
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(PrepareProblem(data, g, *bounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrepareProblemTest, RejectsInfeasibleBounds) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.8}});
  const Grouping g = MakeGrouping({0, 0, 1}, 2);
  auto bounds = GroupBounds::Explicit(3, {2, 2}, {3, 3});  // sum(l) > k.
  EXPECT_FALSE(bounds.ok());
  auto bounds2 = GroupBounds::Explicit(3, {1, 2}, {3, 3});
  ASSERT_TRUE(bounds2.ok());
  // Group 1 has only one member but lower bound 2.
  EXPECT_EQ(PrepareProblem(data, g, *bounds2).status().code(),
            StatusCode::kInfeasible);
}

TEST(DedupRowsTest, PreservesFirstOccurrence) {
  std::vector<int> rows = {3, 1, 3, 2, 1};
  DedupRows(&rows);
  EXPECT_EQ(rows, (std::vector<int>{3, 1, 2}));
}

TEST(PadSolutionTest, PadsToExactlyK) {
  Rng rng(2);
  const Dataset data = GenIndependent(50, 2, &rng);
  const Grouping g = GroupBySumRank(data, 2);
  auto bounds = GroupBounds::Explicit(6, {2, 2}, {4, 4});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  std::vector<int> sol = {input->pool.front()};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol.size(), 6u);
  EXPECT_EQ(CountViolations(sol, g, *bounds), 0);
}

TEST(PadSolutionTest, AlreadyCompleteSolutionUnchanged) {
  const Dataset data =
      MakeDataset({{1, 0}, {0.9, 0.2}, {0, 1}, {0.2, 0.9}});
  const Grouping g = MakeGrouping({0, 0, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  std::vector<int> sol = {0, 2};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol, (std::vector<int>{0, 2}));
}

TEST(PadSolutionTest, RemovesDuplicates) {
  const Dataset data =
      MakeDataset({{1, 0}, {0.9, 0.2}, {0, 1}, {0.2, 0.9}});
  const Grouping g = MakeGrouping({0, 0, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  std::vector<int> sol = {0, 0, 0};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol.size(), 2u);
  EXPECT_EQ(CountViolations(sol, g, *bounds), 0);
}

TEST(PadSolutionTest, DetectsOverfullGroup) {
  const Dataset data =
      MakeDataset({{1, 0}, {0.9, 0.2}, {0, 1}, {0.2, 0.9}});
  const Grouping g = MakeGrouping({0, 0, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  std::vector<int> sol = {0, 1};  // Two from group 0 but h_0 = 1.
  EXPECT_EQ(PadSolution(*input, &sol).code(), StatusCode::kInternal);
}

TEST(PadSolutionTest, FillsLowerBoundsFirst) {
  // Group 1 has lower bound 2; starting from a group-0 point, padding must
  // bring group 1 up to 2.
  const Dataset data = MakeDataset(
      {{1, 0}, {0.9, 0.2}, {0, 1}, {0.2, 0.9}, {0.5, 0.5}, {0.6, 0.4}});
  const Grouping g = MakeGrouping({0, 0, 1, 1, 1, 0}, 2);
  auto bounds = GroupBounds::Explicit(3, {1, 2}, {1, 2});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  std::vector<int> sol = {0};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol.size(), 3u);
  const auto counts = SolutionGroupCounts(sol, g);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
}

TEST(PadSolutionTest, FallsBackToLiveNonPoolMembersBySum) {
  // Group 0's pool is {0, 1}; rows 2-6 are dominated by row 1. A lower
  // bound of 5 exhausts the pool, so padding continues with the remaining
  // live members by descending attribute sum (rows 2 and 3 tie at 0.75, the
  // lower index first) and skips the erased row 4 (sum 0.7).
  Dataset data = MakeDataset({{1, 0.1},
                              {0.6, 0.6},
                              {0.25, 0.5},
                              {0.5, 0.25},
                              {0.35, 0.35},
                              {0.2, 0.2},
                              {0.1, 0.05},
                              {0, 1},
                              {0.1, 0.2}});
  ASSERT_TRUE(data.ErasePoints({4}).ok());
  const Grouping g = MakeGrouping({0, 0, 0, 0, 0, 0, 0, 1, 1}, 2);
  auto bounds = GroupBounds::Explicit(6, {5, 1}, {5, 1});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok());
  EXPECT_EQ(input->pool_by_group[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(input->group_counts, (std::vector<int>{6, 2}));
  std::vector<int> sol = {7};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol, (std::vector<int>{7, 1, 0, 2, 3, 5}));

  // When the pool suffices, padding takes pool rows only.
  auto small = GroupBounds::Explicit(3, {2, 1}, {2, 1});
  ASSERT_TRUE(small.ok());
  input = PrepareProblem(data, g, *small);
  ASSERT_TRUE(input.ok());
  sol = {7};
  ASSERT_TRUE(PadSolution(*input, &sol).ok());
  EXPECT_EQ(sol, (std::vector<int>{7, 1, 0}));
}

/// PadSolution as it stood before the fallback became lazy: every group's
/// live members, sorted in full, queued behind its sorted pool rows.
std::vector<int> EagerPad(const ProblemInput& input, std::vector<int> sol) {
  DedupRows(&sol);
  const Dataset& data = *input.data;
  const Grouping& g = *input.grouping;
  const GroupBounds& bounds = input.bounds;
  const std::vector<std::vector<int>> members = g.MembersLive(data);
  const std::vector<int> counts = SolutionGroupCounts(sol, g);
  std::vector<int> target(static_cast<size_t>(g.num_groups));
  long long remaining = bounds.k;
  for (size_t c = 0; c < target.size(); ++c) {
    target[c] = std::max(counts[c], bounds.lower[c]);
    remaining -= target[c];
  }
  for (size_t c = 0; c < target.size() && remaining > 0; ++c) {
    const int cap =
        std::min(bounds.upper[c], static_cast<int>(members[c].size()));
    const int take = static_cast<int>(std::min<long long>(
        remaining, cap - target[c]));
    if (take > 0) {
      target[c] += take;
      remaining -= take;
    }
  }
  std::unordered_set<int> chosen(sol.begin(), sol.end());
  auto sum_desc = [&](int a, int b) {
    const double sa = SumCoords(data.point(static_cast<size_t>(a)), 2);
    const double sb = SumCoords(data.point(static_cast<size_t>(b)), 2);
    return sa != sb ? sa > sb : a < b;
  };
  for (size_t c = 0; c < target.size(); ++c) {
    int need = target[c] - counts[c];
    std::vector<int> queue = input.pool_by_group[c];
    std::sort(queue.begin(), queue.end(), sum_desc);
    std::vector<int> rest = members[c];
    std::sort(rest.begin(), rest.end(), sum_desc);
    queue.insert(queue.end(), rest.begin(), rest.end());
    for (int r : queue) {
      if (need <= 0) break;
      if (chosen.insert(r).second) {
        sol.push_back(r);
        --need;
      }
    }
  }
  return sol;
}

TEST(PadSolutionTest, MatchesEagerPaddingOnRandomInstances) {
  Rng rng(31);
  int fell_back = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Dataset data = GenIndependent(30 + rng.UniformInt(40), 2, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    const Grouping g = GroupBySumRank(data, c_num);
    std::vector<int> erase;
    for (size_t r = 0; r < data.size(); ++r) {
      if (rng.Bernoulli(0.2)) erase.push_back(static_cast<int>(r));
    }
    ASSERT_TRUE(data.ErasePoints(erase).ok());
    const std::vector<int> live = g.LiveCounts(data);
    // Lower bounds up to each group's live count, so some exceed its pool.
    std::vector<int> lower(static_cast<size_t>(c_num));
    std::vector<int> upper(static_cast<size_t>(c_num));
    int k = 0;
    for (size_t c = 0; c < lower.size(); ++c) {
      lower[c] = static_cast<int>(rng.UniformInt(
          static_cast<uint64_t>(std::min(live[c], 12) + 1)));
      upper[c] = lower[c] + static_cast<int>(rng.UniformInt(4));
      k += lower[c];
    }
    k += static_cast<int>(rng.UniformInt(3));
    auto bounds = GroupBounds::Explicit(std::max(k, 1), lower, upper);
    if (!bounds.ok() || !bounds->Validate(live).ok()) continue;
    auto input = PrepareProblem(data, g, *bounds);
    ASSERT_TRUE(input.ok()) << input.status();
    // Start from one pool row of a random group that must get one anyway.
    std::vector<int> sol;
    const size_t c0 = rng.UniformInt(static_cast<uint64_t>(c_num));
    if (!input->pool_by_group[c0].empty() && lower[c0] > 0) {
      sol.push_back(input->pool_by_group[c0].front());
    }
    const std::vector<int> expected = EagerPad(*input, sol);
    ASSERT_TRUE(PadSolution(*input, &sol).ok()) << "trial " << trial;
    EXPECT_EQ(sol, expected) << "trial " << trial;
    for (int r : sol) EXPECT_TRUE(data.live(static_cast<size_t>(r)));
    for (size_t c = 0; c < lower.size(); ++c) {
      if (SolutionGroupCounts(sol, g)[c] >
          static_cast<int>(input->pool_by_group[c].size())) {
        ++fell_back;
        break;
      }
    }
  }
  EXPECT_GE(fell_back, 20);
}

}  // namespace
}  // namespace fairhms
