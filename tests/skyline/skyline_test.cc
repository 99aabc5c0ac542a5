#include "skyline/skyline.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::BruteForceSkyline;
using testing::MakeDataset;
using testing::MakeGrouping;

TEST(SkylineTest, Simple2D) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.5}, {0.4, 0.4}});
  const auto sky = ComputeSkyline(data);
  EXPECT_EQ(sky, (std::vector<int>{0, 1, 2}));
}

TEST(SkylineTest, DuplicatesKept) {
  const Dataset data = MakeDataset({{1, 1}, {1, 1}, {0.5, 0.5}});
  const auto sky = ComputeSkyline(data);
  EXPECT_EQ(sky, (std::vector<int>{0, 1}));
}

TEST(SkylineTest, EqualXTies2D) {
  const Dataset data = MakeDataset({{0.5, 0.9}, {0.5, 0.8}, {0.5, 0.9}});
  const auto sky = ComputeSkyline(data);
  EXPECT_EQ(sky, (std::vector<int>{0, 2}));
}

TEST(SkylineTest, SinglePoint) {
  const Dataset data = MakeDataset({{0.3, 0.3}});
  EXPECT_EQ(ComputeSkyline(data), (std::vector<int>{0}));
}

TEST(SkylineTest, EmptyRows) {
  const Dataset data = MakeDataset({{0.3, 0.3}});
  EXPECT_TRUE(ComputeSkyline(data, std::vector<int>{}).empty());
}

TEST(SkylineTest, Random2DMatchesBruteForce) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Dataset data = GenIndependent(200, 2, &rng);
    std::vector<int> rows(200);
    std::iota(rows.begin(), rows.end(), 0);
    auto fast = ComputeSkyline(data);
    auto brute = BruteForceSkyline(data, rows);
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(fast, brute) << "trial " << trial;
  }
}

TEST(SkylineTest, RandomMdMatchesBruteForce) {
  Rng rng(13);
  for (int d = 3; d <= 6; ++d) {
    const Dataset data = GenIndependent(150, d, &rng);
    std::vector<int> rows(150);
    std::iota(rows.begin(), rows.end(), 0);
    auto fast = ComputeSkyline(data);
    auto brute = BruteForceSkyline(data, rows);
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(fast, brute) << "d=" << d;
  }
}

TEST(SkylineTest, AntiCorrelatedMatchesBruteForce) {
  Rng rng(17);
  const Dataset data = GenAntiCorrelated(150, 3, &rng);
  std::vector<int> rows(150);
  std::iota(rows.begin(), rows.end(), 0);
  auto fast = ComputeSkyline(data);
  auto brute = BruteForceSkyline(data, rows);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(fast, brute);
}

TEST(SkylineTest, SubsetOfRowsOnly) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.9, 0.9}, {0.1, 0.1}});
  // Restricted to rows {0, 3}: both survive within the subset.
  const auto sky = ComputeSkyline(data, std::vector<int>{0, 3});
  EXPECT_EQ(sky, (std::vector<int>{0, 3}));
}

TEST(SkylineTest, GroupSkylinesMatchBruteForcePerGroup) {
  Rng rng(29);
  const Dataset data = GenIndependent(300, 3, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const auto skys = ComputeGroupSkylines(data, g);
  const auto members = g.Members();
  for (int c = 0; c < 3; ++c) {
    auto brute = BruteForceSkyline(data, members[static_cast<size_t>(c)]);
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(skys[static_cast<size_t>(c)], brute) << "group " << c;
  }
}

TEST(SkylineTest, GroupSkylinesExact) {
  const Dataset data =
      MakeDataset({{1, 0}, {0.9, 0.1}, {0.8, 0.05}, {0, 1}, {0.1, 0.9}});
  const Grouping g = MakeGrouping({0, 0, 0, 1, 1}, 2);
  const auto skys = ComputeGroupSkylines(data, g);
  ASSERT_EQ(skys.size(), 2u);
  // (0.8,0.05) is dominated by (0.9,0.1) within group 0.
  EXPECT_EQ(skys[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(skys[1], (std::vector<int>{3, 4}));
}

TEST(SkylineTest, FairPoolContainsGlobalSkyline) {
  Rng rng(23);
  const Dataset data = GenIndependent(500, 3, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const auto pool = ComputeFairCandidatePool(data, g);
  const auto global = ComputeSkyline(data);
  EXPECT_TRUE(
      std::includes(pool.begin(), pool.end(), global.begin(), global.end()));
}

TEST(SkylineTest, FairPoolMayExceedGlobalSkyline) {
  // A globally dominated point that is its group's best must be in the pool.
  const Dataset data = MakeDataset({{1, 1}, {0.5, 0.5}});
  const Grouping g = MakeGrouping({0, 1}, 2);
  const auto pool = ComputeFairCandidatePool(data, g);
  EXPECT_EQ(pool, (std::vector<int>{0, 1}));
  EXPECT_EQ(ComputeSkyline(data), (std::vector<int>{0}));
}

}  // namespace
}  // namespace fairhms
