// The dynamic-update subsystem's hard oracle: after EVERY insert and
// delete, the incrementally maintained state (global skyline, per-group
// skylines, fair candidate pool, live group tables) must be bit-identical
// to recomputing everything from scratch on the mutated dataset. The
// randomized churn suites run > 1k interleaved ops across dimensions and
// churn-threshold settings (including one that forces frequent full
// rebuilds, so the fallback path is held to the same oracle).

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "skyline/incremental.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

TEST(IncrementalSkylineTest, InsertDominatedAndDominating) {
  Dataset data = MakeDataset({{0.5, 0.5}, {0.2, 0.95}});
  IncrementalSkyline sky(&data);
  sky.Reset({0, 1});
  EXPECT_EQ(sky.skyline(), (std::vector<int>{0, 1}));

  ASSERT_TRUE(data.AppendRows({{0.3, 0.3}}, {{}}).ok());  // Dominated.
  sky.Insert(2);
  EXPECT_EQ(sky.skyline(), (std::vector<int>{0, 1}));

  ASSERT_TRUE(data.AppendRows({{0.9, 0.9}}, {{}}).ok());  // Dominates 0, 2.
  sky.Insert(3);
  EXPECT_EQ(sky.skyline(), (std::vector<int>{1, 3}));
  EXPECT_EQ(sky.universe_size(), 4u);
}

TEST(IncrementalSkylineTest, EraseRepromotesTransitiveChains) {
  // 3 dominates 0 dominates 1 and 2; erasing 3 re-exposes 0, then erasing
  // 0 re-exposes 1 and 2 (which do not dominate each other).
  Dataset data =
      MakeDataset({{0.5, 0.5}, {0.4, 0.1}, {0.1, 0.4}, {0.9, 0.9}});
  IncrementalSkyline sky(&data);
  sky.Reset({0, 1, 2, 3});
  EXPECT_EQ(sky.skyline(), (std::vector<int>{3}));

  ASSERT_TRUE(sky.Erase(3).ok());
  EXPECT_EQ(sky.skyline(), (std::vector<int>{0}));
  ASSERT_TRUE(sky.Erase(0).ok());
  EXPECT_EQ(sky.skyline(), (std::vector<int>{1, 2}));
  ASSERT_TRUE(sky.Erase(1).ok());
  ASSERT_TRUE(sky.Erase(2).ok());
  EXPECT_TRUE(sky.skyline().empty());
  EXPECT_EQ(sky.universe_size(), 0u);

  EXPECT_EQ(sky.Erase(3).code(), StatusCode::kNotFound);
}

TEST(IncrementalSkylineTest, DuplicatesSurviveEachOther) {
  Dataset data = MakeDataset({{0.7, 0.7}, {0.7, 0.7}, {0.1, 0.1}});
  IncrementalSkyline sky(&data);
  sky.Reset({0, 1, 2});
  EXPECT_EQ(sky.skyline(), (std::vector<int>{0, 1}));
  ASSERT_TRUE(sky.Erase(0).ok());
  EXPECT_EQ(sky.skyline(), (std::vector<int>{1}));
}

/// One deterministic churn schedule: starting from `n0` rows, interleave
/// `ops` random inserts/deletes/no-op queries and hold the SkylineIndex to
/// the full-recompute oracle after every single step.
void RunChurnOracle(int n0, int dim, int groups, int ops, uint64_t seed,
                    double churn_rebuild_factor, bool expect_rebuilds) {
  Rng rng(seed);
  Dataset data = GenIndependent(static_cast<size_t>(n0), dim, &rng)
                     .NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, groups);

  IncrementalSkylineOptions opts;
  opts.churn_rebuild_factor = churn_rebuild_factor;
  SkylineIndex index(&data, &grouping, opts);

  auto check = [&](int step) {
    ASSERT_EQ(index.skyline(), ComputeSkyline(data)) << "step " << step;
    ASSERT_EQ(index.group_skylines(), ComputeGroupSkylines(data, grouping))
        << "step " << step;
    ASSERT_EQ(index.fair_pool(), ComputeFairCandidatePool(data, grouping))
        << "step " << step;
    ASSERT_EQ(index.live_counts(), grouping.LiveCounts(data))
        << "step " << step;
    // The index keeps no member lists; G-* gathers one group's live
    // members on demand, which must agree with the all-groups table.
    const std::vector<std::vector<int>> members = grouping.MembersLive(data);
    for (int c = 0; c < grouping.num_groups; ++c) {
      ASSERT_EQ(grouping.MembersLive(data, c),
                members[static_cast<size_t>(c)])
          << "step " << step << " group " << c;
    }
    ASSERT_EQ(index.data_version(), data.version()) << "step " << step;
  };
  check(-1);

  for (int step = 0; step < ops; ++step) {
    const uint64_t dice = rng.UniformInt(100);
    if (dice < 55 || data.live_size() < 8) {
      // Insert: mostly fresh random points, sometimes an exact duplicate
      // of a live row (skylines keep duplicates; the maintainer must too).
      std::vector<double> coords(static_cast<size_t>(dim));
      const std::vector<int> live = data.LiveRows();
      if (dice % 7 == 0 && !live.empty()) {
        const int src = live[rng.UniformInt(live.size())];
        for (int j = 0; j < dim; ++j) {
          coords[static_cast<size_t>(j)] = data.at(static_cast<size_t>(src), j);
        }
      } else {
        for (int j = 0; j < dim; ++j) {
          coords[static_cast<size_t>(j)] = rng.Uniform();
        }
      }
      const int group = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(groups)));
      auto first = data.AppendRows({coords}, {{}});
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      grouping.AppendRow(group);
      ASSERT_TRUE(index.OnAppend(static_cast<size_t>(*first), data.size()).ok());
    } else {
      // Delete 1-3 random live rows — sometimes skyline points (the
      // interesting re-promotion case), sometimes dominated ones.
      const std::vector<int> live = data.LiveRows();
      const size_t want = 1 + static_cast<size_t>(rng.UniformInt(3));
      std::vector<int> doomed;
      for (size_t t = 0; t < want && doomed.size() < live.size(); ++t) {
        const int row = live[rng.UniformInt(live.size())];
        if (std::find(doomed.begin(), doomed.end(), row) == doomed.end()) {
          doomed.push_back(row);
        }
      }
      ASSERT_TRUE(data.ErasePoints(doomed).ok());
      ASSERT_TRUE(index.OnErase(doomed).ok());
    }
    check(step);
  }
  if (expect_rebuilds) {
    EXPECT_GT(index.rebuilds(), 0u) << "churn threshold never fired";
  }
}

TEST(SkylineIndexChurnTest, Random2DThousandOps) {
  RunChurnOracle(/*n0=*/150, /*dim=*/2, /*groups=*/3, /*ops=*/1000,
                 /*seed=*/7, /*churn_rebuild_factor=*/8.0,
                 /*expect_rebuilds=*/false);
}

TEST(SkylineIndexChurnTest, Random4D) {
  RunChurnOracle(/*n0=*/200, /*dim=*/4, /*groups=*/4, /*ops=*/400,
                 /*seed=*/11, /*churn_rebuild_factor=*/8.0,
                 /*expect_rebuilds=*/false);
}

TEST(SkylineIndexChurnTest, Random6DHighChurnForcesRebuilds) {
  // A tiny threshold forces the full-recompute fallback to fire many
  // times mid-stream; the oracle holds across the rebuild boundary.
  RunChurnOracle(/*n0=*/120, /*dim=*/6, /*groups=*/3, /*ops=*/300,
                 /*seed=*/13, /*churn_rebuild_factor=*/0.05,
                 /*expect_rebuilds=*/true);
}

TEST(SkylineIndexChurnTest, RebuildsDisabled) {
  RunChurnOracle(/*n0=*/100, /*dim=*/3, /*groups=*/2, /*ops=*/200,
                 /*seed=*/17, /*churn_rebuild_factor=*/0.0,
                 /*expect_rebuilds=*/false);
}

TEST(SkylineIndexTest, NewGroupsJoinTheIndex) {
  Dataset data = MakeDataset({{0.4, 0.4}, {0.6, 0.2}});
  Grouping grouping = MakeGrouping({0, 0}, 1);
  SkylineIndex index(&data, &grouping);
  ASSERT_EQ(index.group_skylines().size(), 1u);

  ASSERT_TRUE(data.AppendRows({{0.1, 0.9}}, {{}}).ok());
  const int g = grouping.AddGroup("late");
  grouping.AppendRow(g);
  ASSERT_TRUE(index.OnAppend(2, 3).ok());

  EXPECT_EQ(index.group_skylines(),
            ComputeGroupSkylines(data, grouping));
  EXPECT_EQ(index.live_counts(), (std::vector<int>{2, 1}));
  EXPECT_EQ(index.fair_pool(), ComputeFairCandidatePool(data, grouping));
}

TEST(IncrementalSkylineTest, SaveRestoreStateRoundTrip) {
  Dataset data =
      MakeDataset({{0.5, 0.5}, {0.4, 0.1}, {0.1, 0.4}, {0.9, 0.9}});
  IncrementalSkyline sky(&data);
  sky.Reset({0, 1, 2, 3});
  ASSERT_TRUE(sky.Erase(3).ok());  // Re-promotes 0; 1, 2 stay dominated.
  ASSERT_TRUE(data.ErasePoints({3}).ok());
  const IncrementalSkylineState state = sky.SaveState();

  IncrementalSkyline restored(&data);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.skyline(), sky.skyline());
  EXPECT_EQ(restored.universe_size(), sky.universe_size());
  const IncrementalSkylineState after = restored.SaveState();
  EXPECT_EQ(after.skyline, state.skyline);
  EXPECT_EQ(after.dominated, state.dominated);

  // A state referencing a dead row is rejected without touching the
  // structure (row 3 was erased above).
  IncrementalSkylineState dead = state;
  dead.skyline.push_back(3);
  EXPECT_EQ(restored.RestoreState(dead).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.skyline(), sky.skyline());

  // So is one listing a row twice across the universe.
  IncrementalSkylineState dup = state;
  dup.dominated.push_back({state.skyline.front(), state.skyline.front()});
  EXPECT_EQ(restored.RestoreState(dup).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.skyline(), sky.skyline());
}

TEST(SkylineIndexTest, RestoredIndexMatchesOriginalAndMutatesIdentically) {
  // Build an index through real churn, export it, restore it against a
  // copy of the table — then drive BOTH through the same mutation stream.
  // A restored index must be indistinguishable from one that never left
  // the process, after every subsequent op.
  Rng rng(23);
  Dataset data = GenIndependent(80, 3, &rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 3);
  SkylineIndex index(&data, &grouping);
  ASSERT_TRUE(data.ErasePoints({2, 5, 9}).ok());
  ASSERT_TRUE(index.OnErase({2, 5, 9}).ok());

  const SkylineIndexState state = index.SaveState();
  Dataset data2 = data;
  Grouping grouping2 = grouping;
  auto restored = SkylineIndex::Restore(&data2, &grouping2, state);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  auto expect_equal = [&](int step) {
    ASSERT_EQ((*restored)->skyline(), index.skyline()) << "step " << step;
    ASSERT_EQ((*restored)->group_skylines(), index.group_skylines())
        << "step " << step;
    ASSERT_EQ((*restored)->fair_pool(), index.fair_pool()) << "step " << step;
    ASSERT_EQ((*restored)->live_counts(), index.live_counts())
        << "step " << step;
    const SkylineIndexState a = index.SaveState();
    const SkylineIndexState b = (*restored)->SaveState();
    ASSERT_EQ(a.global.skyline, b.global.skyline) << "step " << step;
    ASSERT_EQ(a.global.dominated, b.global.dominated) << "step " << step;
    ASSERT_EQ(a.per_group.size(), b.per_group.size()) << "step " << step;
    for (size_t g = 0; g < a.per_group.size(); ++g) {
      ASSERT_EQ(a.per_group[g].skyline, b.per_group[g].skyline)
          << "step " << step << " group " << g;
      ASSERT_EQ(a.per_group[g].dominated, b.per_group[g].dominated)
          << "step " << step << " group " << g;
    }
  };
  expect_equal(-1);

  for (int step = 0; step < 60; ++step) {
    if (rng.UniformInt(100) < 60 || data.live_size() < 8) {
      std::vector<double> coords = {rng.Uniform(), rng.Uniform(),
                                    rng.Uniform()};
      const int group = static_cast<int>(rng.UniformInt(3));
      for (auto [d, g, idx] :
           {std::tuple<Dataset*, Grouping*, SkylineIndex*>{&data, &grouping,
                                                           &index},
            std::tuple<Dataset*, Grouping*, SkylineIndex*>{
                &data2, &grouping2, restored->get()}}) {
        auto first = d->AppendRows({coords}, {{}});
        ASSERT_TRUE(first.ok());
        g->AppendRow(group);
        ASSERT_TRUE(idx->OnAppend(static_cast<size_t>(*first), d->size()).ok());
      }
    } else {
      const std::vector<int> live = data.LiveRows();
      const int row = live[rng.UniformInt(live.size())];
      ASSERT_TRUE(data.ErasePoints({row}).ok());
      ASSERT_TRUE(index.OnErase({row}).ok());
      ASSERT_TRUE(data2.ErasePoints({row}).ok());
      ASSERT_TRUE((*restored)->OnErase({row}).ok());
    }
    expect_equal(step);
  }
  // And the oracle still holds for the restored side on its own table.
  EXPECT_EQ((*restored)->skyline(), ComputeSkyline(data2));
  EXPECT_EQ((*restored)->group_skylines(),
            ComputeGroupSkylines(data2, grouping2));
}

TEST(SkylineIndexTest, GroupEmptiedByDeletesKeepsEmptySkyline) {
  Dataset data = MakeDataset({{0.4, 0.4}, {0.6, 0.2}, {0.2, 0.6}});
  Grouping grouping = MakeGrouping({0, 1, 1}, 2);
  SkylineIndex index(&data, &grouping);
  ASSERT_TRUE(data.ErasePoints({1, 2}).ok());
  ASSERT_TRUE(index.OnErase({1, 2}).ok());
  EXPECT_EQ(index.live_counts(), (std::vector<int>{1, 0}));
  EXPECT_TRUE(index.group_skylines()[1].empty());
  EXPECT_EQ(index.skyline(), ComputeSkyline(data));
}

}  // namespace
}  // namespace fairhms
