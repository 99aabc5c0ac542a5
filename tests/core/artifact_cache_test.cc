// ArtifactCache as a unit: per-kind hit/miss/byte accounting, pruning of
// superseded versions after dataset mutations, Put storing, misses served
// from an attached SkylineIndex only at its versions, RNG
// fast-forward on net hits, evaluators that survive a mutation,
// Clear() refunding exactly what a CacheArbiter was charged, per-entry
// eviction least recently used first, and CacheArbiter::Rebalance
// evicting entries one at a time while leaving alone a cache it cannot
// shrink.

#include "core/artifact_cache.h"

#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "skyline/incremental.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

struct Instance {
  Dataset data{1};
  Grouping grouping;
};

Instance MakeInstance(size_t n = 200, int dim = 3) {
  Instance inst;
  Rng rng(17);
  inst.data = GenAntiCorrelated(n, dim, &rng).NormalizedMinMax();
  inst.grouping = GroupBySumRank(inst.data, 3);
  return inst;
}

std::vector<int> FirstRows(int count) {
  std::vector<int> rows(static_cast<size_t>(count));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST(ArtifactCacheTest, EveryKindMissesThenHitsAndCountsItsBytes) {
  const Instance inst = MakeInstance();
  const Dataset& data = inst.data;
  const Grouping& grouping = inst.grouping;
  ArtifactCache cache;

  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(5);
    const auto net = GetOrSampleNet(&cache, 3, 64, &rng);
    const auto eval = GetOrBuildEvaluator(&cache, data, net, FirstRows(50),
                                          FirstRows(20), 1);
    const auto skyline = GetOrComputeSkyline(&cache, data);
    const auto pool = GetOrComputeFairPool(&cache, data, grouping);
    const auto counts = GetOrComputeGroupCounts(&cache, data, grouping);

    EXPECT_EQ(*skyline, ComputeSkyline(data));
    EXPECT_EQ(*pool, ComputeFairCandidatePool(data, grouping));
    EXPECT_EQ(*counts, grouping.LiveCounts(data));

    const uint64_t hits = static_cast<uint64_t>(pass);
    const CacheStats stats = cache.stats();
    for (const CacheStats::Counter* c :
         {&stats.nets, &stats.evaluators, &stats.skylines, &stats.pools,
          &stats.groups}) {
      EXPECT_EQ(c->misses, 1u);
      EXPECT_EQ(c->hits, hits);
    }
    EXPECT_EQ(stats.nets.bytes, 64u * 3 * sizeof(double));
    EXPECT_EQ(stats.evaluators.bytes, eval->ResidentBytes());
    EXPECT_EQ(stats.skylines.bytes, ArtifactBytes(*skyline));
    EXPECT_EQ(stats.pools.bytes, ArtifactBytes(*pool));
    EXPECT_EQ(stats.groups.bytes, ArtifactBytes(*counts));
    EXPECT_EQ(stats.projections.misses + stats.projections.hits, 0u);
  }
}

TEST(ArtifactCacheTest, MutationsPruneSupersededVersions) {
  Instance inst = MakeInstance();
  Dataset& data = inst.data;
  ArtifactCache cache;
  Rng rng(7);
  const auto net = GetOrSampleNet(&cache, 3, 32, &rng);

  (void)GetOrComputeSkyline(&cache, data);
  (void)GetOrComputeFairPool(&cache, data, inst.grouping);
  (void)GetOrBuildEvaluator(&cache, data, net,
                            *GetOrComputeSkyline(&cache, data), {}, 1);
  const uint64_t net_bytes = cache.stats().nets.bytes;

  // Appending a dominating row changes the skyline: each kind misses once
  // and keeps only the new version's bytes.
  ASSERT_TRUE(data.AppendRows({{1.0, 1.0, 1.0}}, {{}}).ok());
  inst.grouping.AppendRow(0);
  const auto skyline = GetOrComputeSkyline(&cache, data);
  const auto pool = GetOrComputeFairPool(&cache, data, inst.grouping);
  const auto eval = GetOrBuildEvaluator(&cache, data, net, *skyline, {}, 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.skylines.misses, 2u);
  EXPECT_EQ(stats.pools.misses, 2u);
  EXPECT_EQ(stats.evaluators.misses, 2u);
  EXPECT_EQ(stats.skylines.bytes, ArtifactBytes(*skyline));
  EXPECT_EQ(stats.pools.bytes, ArtifactBytes(*pool));
  EXPECT_EQ(stats.evaluators.bytes, eval->ResidentBytes());
  EXPECT_EQ(stats.nets.bytes, net_bytes);  // Nets are version-free.

  // Erasing the new row brings the old skyline back — under a new
  // version, so it is a fresh entry that again replaces the old one.
  ASSERT_TRUE(data.ErasePoints({static_cast<int>(data.size()) - 1}).ok());
  const auto after_erase = GetOrComputeSkyline(&cache, data);
  stats = cache.stats();
  EXPECT_EQ(stats.skylines.misses, 3u);
  EXPECT_EQ(*after_erase, ComputeSkyline(data));
  EXPECT_EQ(stats.skylines.bytes, ArtifactBytes(*after_erase));
  // The first skyline handed out is still alive in its holders' hands.
  EXPECT_EQ(*skyline, std::vector<int>{static_cast<int>(data.size()) - 1});
}

TEST(ArtifactCacheTest, ProjectionReadsItsSourcesGroupTables) {
  // A 2-D projection has its source's rows, tombstones and version, so its
  // group counts are the source's entry, not recomputed.
  Instance inst = MakeInstance();
  ASSERT_TRUE(inst.data.ErasePoints({3, 7}).ok());
  ArtifactCache cache;
  const auto counts = GetOrComputeGroupCounts(&cache, inst.data,
                                              inst.grouping);
  const Dataset projection = inst.data.Project2D();
  EXPECT_EQ(GetOrComputeGroupCounts(&cache, projection, inst.grouping),
            counts);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.groups.misses, 1u);
  EXPECT_EQ(stats.groups.hits, 1u);
  EXPECT_EQ(stats.groups.bytes, ArtifactBytes(*counts));

  // A mutation's counts replace the superseded version's.
  ASSERT_TRUE(inst.data.ErasePoints({11}).ok());
  const auto after = GetOrComputeGroupCounts(&cache, inst.data,
                                             inst.grouping);
  EXPECT_EQ(*after, inst.grouping.LiveCounts(inst.data));
  stats = cache.stats();
  EXPECT_EQ(stats.groups.misses, 2u);
  EXPECT_EQ(stats.groups.bytes, ArtifactBytes(*after));
}

TEST(ArtifactCacheTest, PutIsNeitherHitNorMissAndPrunesOldVersion) {
  Instance inst = MakeInstance();
  ArtifactCache cache;
  using Kind = ArtifactCache::Kind;
  (void)GetOrComputeSkyline(&cache, inst.data);
  ASSERT_TRUE(inst.data.AppendRows({{0.5, 0.5, 0.5}}, {{}}).ok());

  const std::vector<int> published = ComputeSkyline(inst.data);
  cache.Put(ArtifactCache::VersionedKey(Kind::kSkyline, inst.data),
            published);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.skylines.misses, 1u);
  EXPECT_EQ(stats.skylines.hits, 0u);
  EXPECT_EQ(stats.skylines.bytes, ArtifactBytes(published));

  EXPECT_EQ(*GetOrComputeSkyline(&cache, inst.data), published);
  stats = cache.stats();
  EXPECT_EQ(stats.skylines.misses, 1u);
  EXPECT_EQ(stats.skylines.hits, 1u);

  // Re-publishing the same version replaces the value, not the count.
  cache.Put(ArtifactCache::VersionedKey(Kind::kSkyline, inst.data),
            published);
  EXPECT_EQ(cache.stats().skylines.bytes, ArtifactBytes(published));
}

TEST(ArtifactCacheTest, IndexServesItsTableOnlyAtItsVersions) {
  Instance inst = MakeInstance();
  Dataset& data = inst.data;
  Grouping& grouping = inst.grouping;
  SkylineIndex index(&data, &grouping);
  ArtifactCache cache;
  cache.SetIndex(&index);
  EXPECT_EQ(*GetOrComputeSkyline(&cache, data), index.skyline());
  EXPECT_EQ(*GetOrComputeFairPool(&cache, data, grouping), index.fair_pool());
  EXPECT_EQ(cache.stats().skylines.misses, 1u);

  // A mutation the index has not seen: the versions differ, so the miss
  // computes from the table instead of copying the stale index.
  ASSERT_TRUE(data.AppendRows({{1.0, 1.0, 1.0}}, {{}}).ok());
  grouping.AppendRow(0);
  const std::vector<int> stale = index.skyline();
  const std::vector<int> skyline = *GetOrComputeSkyline(&cache, data);
  EXPECT_EQ(skyline, ComputeSkyline(data));
  EXPECT_NE(skyline, stale);
  EXPECT_EQ(*GetOrComputeFairPool(&cache, data, grouping),
            ComputeFairCandidatePool(data, grouping));

  // Routed, the index describes the table again and serves the next
  // version's misses.
  ASSERT_TRUE(index.OnAppend(data.size() - 1, data.size()).ok());
  ASSERT_TRUE(data.ErasePoints({static_cast<int>(data.size()) - 1}).ok());
  ASSERT_TRUE(index.OnErase({static_cast<int>(data.size()) - 1}).ok());
  EXPECT_EQ(*GetOrComputeGroupCounts(&cache, data, grouping),
            grouping.LiveCounts(data));
  EXPECT_EQ(*GetOrComputeSkyline(&cache, data), index.skyline());
  EXPECT_EQ(index.skyline(), ComputeSkyline(data));

  cache.SetIndex(nullptr);
}

TEST(ArtifactCacheTest, NetHitLeavesRngWhereAFreshSampleWould) {
  ArtifactCache cache;
  Rng first(99);
  const auto sampled = GetOrSampleNet(&cache, 4, 50, &first);

  Rng again(99);
  const auto hit = GetOrSampleNet(&cache, 4, 50, &again);
  EXPECT_EQ(hit.get(), sampled.get());
  EXPECT_EQ(cache.stats().nets.hits, 1u);

  Rng fresh(99);
  const UtilityNet reference = UtilityNet::SampleRandom(4, 50, &fresh);
  EXPECT_EQ(again.StateKey(), fresh.StateKey());
  EXPECT_EQ(again.Next64(), fresh.Next64());
  for (int i = 0; i < 4; ++i) {
    for (size_t j = 0; j < reference.size(); ++j) {
      EXPECT_EQ(hit->columns().col(i)[j], reference.columns().col(i)[j]);
    }
  }
}

TEST(ArtifactCacheTest, EvaluatorWhoseRowsSurviveAMutationStillHits) {
  Instance inst = MakeInstance();
  ArtifactCache cache;
  Rng rng(3);
  const auto net = GetOrSampleNet(&cache, 3, 40, &rng);
  const auto first =
      GetOrBuildEvaluator(&cache, inst.data, net, FirstRows(30), {}, 1);

  // A dominated row joins: the evaluator's row sets are unchanged.
  ASSERT_TRUE(inst.data.AppendRows({{0.0, 0.0, 0.0}}, {{}}).ok());
  const auto again =
      GetOrBuildEvaluator(&cache, inst.data, net, FirstRows(30), {}, 1);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(cache.stats().evaluators.hits, 1u);

  // The hit restamped it, so storing a sibling at this version keeps it.
  const auto sibling =
      GetOrBuildEvaluator(&cache, inst.data, net, FirstRows(20), {}, 1);
  EXPECT_EQ(GetOrBuildEvaluator(&cache, inst.data, net, FirstRows(30), {}, 1)
                .get(),
            first.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evaluators.misses, 2u);
  EXPECT_EQ(stats.evaluators.hits, 2u);
  EXPECT_EQ(stats.evaluators.bytes,
            first->ResidentBytes() + sibling->ResidentBytes());
}

TEST(ArtifactCacheTest, ClearRefundsExactlyWhatTheArbiterWasCharged) {
  const Instance inst = MakeInstance();
  CacheArbiter arbiter(/*budget_bytes=*/0);
  ArtifactCache cache;
  arbiter.Register(&cache, "unit", [] {});

  Rng rng(1);
  const auto net = GetOrSampleNet(&cache, 3, 32, &rng);
  const auto skyline = GetOrComputeSkyline(&cache, inst.data);
  (void)GetOrBuildEvaluator(&cache, inst.data, net, *skyline, *skyline, 1);
  (void)GetOrComputeGroupCounts(&cache, inst.data, inst.grouping);
  cache.AccountProjection(/*hit=*/false, 4096);
  EXPECT_EQ(arbiter.total_bytes(), cache.stats().TotalBytes());

  cache.Clear();
  // The projection is session-owned and stays charged; the rest is gone.
  EXPECT_EQ(cache.stats().TotalBytes(), 4096u);
  EXPECT_EQ(arbiter.total_bytes(), 4096u);
  // Holders keep what they were handed.
  EXPECT_EQ(*skyline, ComputeSkyline(inst.data));
  EXPECT_EQ(net->size(), 32u);

  arbiter.Unregister(&cache);
  EXPECT_EQ(arbiter.total_bytes(), 0u);
}

using Kind = ArtifactCache::Kind;

TEST(ArtifactCacheTest, EvictLeastRecentDropsInStoreOrder) {
  const Instance inst = MakeInstance();
  ArtifactCache cache;
  Rng rng(1);
  (void)GetOrSampleNet(&cache, 3, 32, &rng);
  (void)GetOrComputeSkyline(&cache, inst.data);
  (void)GetOrComputeFairPool(&cache, inst.data, inst.grouping);
  const uint64_t before = cache.stats().TotalBytes();

  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kNet));
  EXPECT_EQ(cache.stats().nets.bytes, 0u);
  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kSkyline));
  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kFairPool));
  EXPECT_EQ(cache.EvictLeastRecent(), std::nullopt);
  EXPECT_GT(before, 0u);
  EXPECT_EQ(cache.stats().TotalBytes(), 0u);
}

TEST(ArtifactCacheTest, HitRefreshesAnEntry) {
  const Instance inst = MakeInstance();
  ArtifactCache cache;
  (void)GetOrComputeSkyline(&cache, inst.data);
  (void)GetOrComputeGroupCounts(&cache, inst.data, inst.grouping);
  (void)GetOrComputeSkyline(&cache, inst.data);  // Hit: now the newest.

  EXPECT_EQ(cache.EvictLeastRecent(),
            std::optional<Kind>(Kind::kGroupCounts));
  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kSkyline));
  EXPECT_EQ(cache.stats().skylines.hits, 1u);
}

TEST(ArtifactCacheTest, EvictionSkipsPendingBuilds) {
  // A build in flight is older than the stored entry but is never picked:
  // its builder publishes it.
  const Instance inst = MakeInstance();
  ArtifactCache cache;
  std::promise<void> started, release;
  std::thread builder([&] {
    (void)cache.GetOrBuild<std::vector<int>>(
        ArtifactCache::VersionedKey(Kind::kSkyline, inst.data), [&] {
          started.set_value();
          release.get_future().wait();
          return std::make_shared<const std::vector<int>>(
              ComputeSkyline(inst.data));
        });
  });
  started.get_future().wait();
  (void)GetOrComputeGroupCounts(&cache, inst.data, inst.grouping);

  EXPECT_EQ(cache.EvictLeastRecent(),
            std::optional<Kind>(Kind::kGroupCounts));
  EXPECT_EQ(cache.EvictLeastRecent(), std::nullopt);
  release.set_value();
  builder.join();
  EXPECT_EQ(cache.stats().skylines.bytes,
            ArtifactBytes(ComputeSkyline(inst.data)));
  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kSkyline));
}

TEST(ArtifactCacheTest, EvictionKeepsThePinnedProjection) {
  const Instance inst = MakeInstance();
  CacheArbiter arbiter(/*budget_bytes=*/0);
  ArtifactCache cache;
  arbiter.Register(&cache, "unit", [] {});
  cache.AccountProjection(/*hit=*/false, 4096);
  (void)GetOrComputeSkyline(&cache, inst.data);

  EXPECT_EQ(cache.EvictLeastRecent(), std::optional<Kind>(Kind::kSkyline));
  EXPECT_EQ(cache.EvictLeastRecent(), std::nullopt);
  EXPECT_EQ(cache.stats().TotalBytes(), 4096u);
  EXPECT_EQ(arbiter.total_bytes(), 4096u);
  arbiter.Unregister(&cache);
}

TEST(ArtifactCacheTest, RebalanceEvictsEntriesAndCountsEach) {
  // Three nets of 3 KiB over a 5 KiB budget: the two oldest go, one
  // eviction each, and the newest stays.
  CacheArbiter arbiter(/*budget_bytes=*/5 * 1024);
  ArtifactCache cache;
  int calls = 0;
  arbiter.Register(&cache, "unit", [&] {
    ++calls;
    cache.EvictLeastRecent();
  });
  std::vector<Rng> streams;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    streams.push_back(rng);
    (void)GetOrSampleNet(&cache, 3, 128, &rng);
  }
  ASSERT_EQ(arbiter.total_bytes(), 3u * 3 * 1024);

  arbiter.Rebalance(&cache);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(arbiter.evictions(), 2u);
  EXPECT_EQ(arbiter.total_bytes(), 3u * 1024);
  Rng newest = streams[2];
  (void)GetOrSampleNet(&cache, 3, 128, &newest);
  EXPECT_EQ(cache.stats().nets.hits, 1u);
  arbiter.Unregister(&cache);
}

TEST(ArtifactCacheTest, RebalanceSkipsCachesHoldingOnlyTheirProjection) {
  // Cache A's only charge is its session-owned projection, which eviction
  // keeps; cache B holds a net and then a skyline, over the budget.
  // Evicting from A would free nothing, so Rebalance(B) must leave A alone
  // and evict B's least recently used entry, the net: one entry, counted
  // once, after which the total fits.
  const Instance inst = MakeInstance();
  CacheArbiter arbiter(/*budget_bytes=*/8192);
  ArtifactCache a, b;
  int a_calls = 0, b_calls = 0;
  arbiter.Register(&a, "a", [&] {
    ++a_calls;
    a.EvictLeastRecent();
  });
  arbiter.Register(&b, "b", [&] {
    ++b_calls;
    b.EvictLeastRecent();
  });
  a.AccountProjection(/*hit=*/false, 4096);
  arbiter.Touch(&a);
  Rng rng(1);
  (void)GetOrSampleNet(&b, 3, 512, &rng);
  (void)GetOrComputeSkyline(&b, inst.data);
  arbiter.Touch(&b);
  ASSERT_GT(arbiter.total_bytes(), arbiter.budget_bytes());
  const uint64_t skyline_bytes = b.stats().skylines.bytes;
  ASSERT_GT(skyline_bytes, 0u);

  arbiter.Rebalance(&b);
  EXPECT_EQ(a_calls, 0);
  EXPECT_EQ(b_calls, 1);
  EXPECT_EQ(arbiter.evictions(), 1u);
  EXPECT_EQ(b.stats().nets.bytes, 0u);
  EXPECT_EQ(arbiter.total_bytes(), 4096u + skyline_bytes);

  // Over budget on pinned bytes: B's last entry goes, then nothing is
  // left to evict and A is still never called.
  a.AccountProjection(/*hit=*/false, 8192);
  arbiter.Rebalance();
  EXPECT_EQ(a_calls, 0);
  EXPECT_EQ(b_calls, 2);
  EXPECT_EQ(arbiter.evictions(), 2u);
  EXPECT_EQ(arbiter.total_bytes(), 4096u + 8192u);
  arbiter.Unregister(&a);
  arbiter.Unregister(&b);
}

}  // namespace
}  // namespace fairhms
