// Versioned mutation of Dataset (AppendRows / ErasePoints / tombstones)
// and the live views layered on it (LiveRows, Grouping::LiveCounts /
// MembersLive, live-filtered skylines).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/grouping.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(DatasetDynamicTest, VersionBumpsOnEveryMutation) {
  Dataset data(2);
  const uint64_t v0 = data.version();
  data.AddPoint({0.1, 0.2});
  EXPECT_GT(data.version(), v0);
  const uint64_t v1 = data.version();
  ASSERT_TRUE(data.AppendRows({{0.3, 0.4}, {0.5, 0.6}}, {{}, {}}).ok());
  EXPECT_GT(data.version(), v1);
  const uint64_t v2 = data.version();
  ASSERT_TRUE(data.ErasePoints({1}).ok());
  EXPECT_GT(data.version(), v2);
}

TEST(DatasetDynamicTest, AppendRowsReturnsFirstIndexAndValidates) {
  Dataset data(2);
  data.AddPoint({0.5, 0.5});
  auto first = data.AppendRows({{0.1, 0.9}, {0.9, 0.1}}, {{}, {}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 1);
  EXPECT_EQ(data.size(), 3u);
  EXPECT_EQ(data.live_size(), 3u);
  EXPECT_DOUBLE_EQ(data.at(2, 0), 0.9);

  // Bad shapes and bad values leave the table untouched.
  EXPECT_FALSE(data.AppendRows({}, {}).ok());
  EXPECT_FALSE(data.AppendRows({{0.1}}, {{}}).ok());           // Wrong dim.
  EXPECT_FALSE(data.AppendRows({{0.1, -0.2}}, {{}}).ok());     // Negative.
  EXPECT_FALSE(data.AppendRows({{0.1, 0.2}}, {{}, {}}).ok());  // Shape.
  EXPECT_EQ(data.size(), 3u);
}

TEST(DatasetDynamicTest, AppendRowsChecksCategoricalCodes) {
  Dataset data(2);
  data.AddCategoricalColumn("g", {"a", "b"});
  ASSERT_TRUE(data.AppendRows({{0.1, 0.1}}, {{1}}).ok());
  EXPECT_FALSE(data.AppendRows({{0.1, 0.1}}, {{2}}).ok());   // Code range.
  EXPECT_FALSE(data.AppendRows({{0.1, 0.1}}, {{}}).ok());    // Missing code.
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.categorical(0).codes[0], 1);
}

TEST(DatasetDynamicTest, ErasePointsTombstonesWithoutMovingRows) {
  Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.5}, {0.2, 0.2}});
  ASSERT_TRUE(data.ErasePoints({1, 3}).ok());
  EXPECT_EQ(data.size(), 4u);  // Indices keep their meaning.
  EXPECT_EQ(data.live_size(), 2u);
  EXPECT_TRUE(data.live(0));
  EXPECT_FALSE(data.live(1));
  EXPECT_TRUE(data.has_tombstones());
  EXPECT_EQ(data.LiveRows(), (std::vector<int>{0, 2}));
  EXPECT_DOUBLE_EQ(data.at(1, 1), 1.0);  // Still addressable.

  EXPECT_EQ(data.ErasePoints({1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(data.ErasePoints({7}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(data.ErasePoints({0, 0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(data.live_size(), 2u);
}

TEST(DatasetDynamicTest, AppendAfterEraseKeepsLivenessAligned) {
  Dataset data = MakeDataset({{1, 0}, {0, 1}});
  ASSERT_TRUE(data.ErasePoints({0}).ok());
  ASSERT_TRUE(data.AppendRows({{0.7, 0.7}}, {{}}).ok());
  EXPECT_FALSE(data.live(0));
  EXPECT_TRUE(data.live(2));
  EXPECT_EQ(data.LiveRows(), (std::vector<int>{1, 2}));
}

TEST(DatasetDynamicTest, NormalizationIgnoresErasedRows) {
  Dataset data = MakeDataset({{10, 1}, {2, 2}, {4, 4}});
  ASSERT_TRUE(data.ErasePoints({0}).ok());  // The per-column extremes.
  const Dataset norm = data.NormalizedMinMax();
  // Live rows span [2,4] x [2,4]; the erased outlier must not stretch it.
  EXPECT_DOUBLE_EQ(norm.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(norm.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(norm.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(norm.at(2, 1), 1.0);
  EXPECT_FALSE(norm.live(0));  // Tombstones carry over.

  const Dataset scaled = data.ScaledByMax();
  EXPECT_DOUBLE_EQ(scaled.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(scaled.at(1, 0), 0.5);
}

TEST(DatasetDynamicTest, NormalizationKeepsFirstSeenSignedZero) {
  // The live-row bounds fold with std::min from +inf, so on a +/-0.0 tie
  // the first-seen zero is the minimum, and v - lo shows which one won:
  // -0.0 - +0.0 is -0.0, while +0.0 - -0.0 is +0.0. An erased row outside
  // the tie must not change the pick.
  for (const bool erase : {false, true}) {
    SCOPED_TRACE(erase ? "with tombstone" : "no tombstone");
    Dataset data = MakeDataset({{0.0, -0.0}, {-0.0, 0.0}, {1.0, 1.0}});
    if (erase) {
      ASSERT_TRUE(data.AppendRows({{0.5, 0.5}}, {{}}).ok());
      ASSERT_TRUE(data.ErasePoints({3}).ok());
    }
    const Dataset norm = data.NormalizedMinMax();
    EXPECT_TRUE(std::signbit(norm.at(1, 0)));   // lo = +0.0 (row 0).
    EXPECT_EQ(norm.at(1, 0), 0.0);
    EXPECT_FALSE(std::signbit(norm.at(0, 1)));  // lo = -0.0 (row 0).
    EXPECT_EQ(norm.at(0, 1), 0.0);
    EXPECT_EQ(norm.at(2, 0), 1.0);
  }
}

TEST(DatasetDynamicTest, Project2DCarriesRowsTombstonesAndVersion) {
  Dataset data(std::vector<std::string>{"x", "y", "z"});
  data.AddPoint({0.1, 0.2, 0.3});
  ASSERT_TRUE(
      data.AppendRows({{0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}}, {{}, {}}).ok());
  ASSERT_TRUE(data.ErasePoints({1}).ok());
  ASSERT_TRUE(data.AppendRows({{0.3, 0.2, 0.1}}, {{}}).ok());

  const Dataset proj = data.Project2D();
  EXPECT_EQ(proj.dim(), 2);
  EXPECT_EQ(proj.attr_names(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(proj.size(), data.size());
  EXPECT_EQ(proj.live_size(), data.live_size());
  EXPECT_EQ(proj.version(), data.version());
  EXPECT_EQ(proj.LiveRows(), (std::vector<int>{0, 2, 3}));
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(proj.live(i), data.live(i));
    EXPECT_EQ(proj.at(i, 0), data.at(i, 0));
    EXPECT_EQ(proj.at(i, 1), data.at(i, 1));
  }
  EXPECT_EQ(proj.at(1, 1), 0.5);  // Erased rows stay addressable.
}

TEST(GroupingLiveTest, LiveCountsAndMembersExcludeErased) {
  Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.5}, {0.2, 0.2}});
  const Grouping g = MakeGrouping({0, 1, 0, 1}, 2);
  EXPECT_EQ(g.LiveCounts(data), g.Counts());
  EXPECT_EQ(g.MembersLive(data), g.Members());

  ASSERT_TRUE(data.ErasePoints({2, 3}).ok());
  EXPECT_EQ(g.LiveCounts(data), (std::vector<int>{1, 1}));
  EXPECT_EQ(g.MembersLive(data),
            (std::vector<std::vector<int>>{{0}, {1}}));
  EXPECT_EQ(g.Counts(), (std::vector<int>{2, 2}));  // Raw view unchanged.
}

TEST(GroupingLiveTest, AppendRowAndAddGroupBumpVersion) {
  Grouping g = MakeGrouping({0, 0}, 1);
  const uint64_t v0 = g.version;
  g.AppendRow(0);
  EXPECT_GT(g.version, v0);
  const int added = g.AddGroup("new");
  EXPECT_EQ(added, 1);
  EXPECT_EQ(g.num_groups, 2);
  EXPECT_EQ(g.names.back(), "new");
}

TEST(SkylineLiveTest, ErasedRowsLeaveAndReexposeTheSkyline) {
  // Row 0 dominates row 2; erasing 0 must re-expose 2, and erased rows
  // must never be returned even when passed in explicitly.
  Dataset data = MakeDataset({{1, 1}, {0, 1}, {0.5, 0.5}});
  EXPECT_EQ(ComputeSkyline(data), (std::vector<int>{0}));
  ASSERT_TRUE(data.ErasePoints({0}).ok());
  EXPECT_EQ(ComputeSkyline(data), (std::vector<int>{1, 2}));
  EXPECT_EQ(ComputeSkyline(data, std::vector<int>{0, 1, 2}),
            (std::vector<int>{1, 2}));
  ASSERT_TRUE(data.ErasePoints({1, 2}).ok());
  EXPECT_TRUE(ComputeSkyline(data).empty());
}

}  // namespace
}  // namespace fairhms
