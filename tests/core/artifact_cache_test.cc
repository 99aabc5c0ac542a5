// ArtifactCache as a unit: per-kind hit/miss/byte accounting, pruning of
// superseded versions after dataset mutations, Put publishing, RNG
// fast-forward on net hits, evaluators that survive a mutation,
// Clear() refunding exactly what a CacheArbiter was charged, and
// CacheArbiter::Rebalance leaving alone a cache it cannot shrink.

#include "core/artifact_cache.h"

#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
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
    const auto group_skylines =
        GetOrComputeGroupSkylines(&cache, data, grouping);
    const auto pool = GetOrComputeFairPool(&cache, data, grouping);
    const auto counts = GetOrComputeGroupCounts(&cache, data, grouping);
    const auto members = GetOrComputeGroupMembers(&cache, data, grouping);

    EXPECT_EQ(*skyline, ComputeSkyline(data));
    EXPECT_EQ(*group_skylines, ComputeGroupSkylines(data, grouping));
    EXPECT_EQ(*pool, ComputeFairCandidatePool(data, grouping));
    EXPECT_EQ(*counts, grouping.LiveCounts(data));
    EXPECT_EQ(*members, grouping.MembersLive(data));

    const uint64_t hits = static_cast<uint64_t>(pass);
    const CacheStats stats = cache.stats();
    for (const CacheStats::Counter* c :
         {&stats.nets, &stats.evaluators, &stats.skylines,
          &stats.group_skylines, &stats.pools}) {
      EXPECT_EQ(c->misses, 1u);
      EXPECT_EQ(c->hits, hits);
    }
    EXPECT_EQ(stats.groups.misses, 2u);  // Counts and members share it.
    EXPECT_EQ(stats.groups.hits, 2 * hits);
    EXPECT_EQ(stats.nets.bytes, 64u * 3 * sizeof(double));
    EXPECT_EQ(stats.evaluators.bytes, eval->ResidentBytes());
    EXPECT_EQ(stats.skylines.bytes, ArtifactBytes(*skyline));
    EXPECT_EQ(stats.group_skylines.bytes, ArtifactBytes(*group_skylines));
    EXPECT_EQ(stats.pools.bytes, ArtifactBytes(*pool));
    EXPECT_EQ(stats.groups.bytes,
              ArtifactBytes(*counts) + ArtifactBytes(*members));
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
  for (size_t j = 0; j < reference.size(); ++j) {
    for (int i = 0; i < 4; ++i) EXPECT_EQ(hit->vec(j)[i], reference.vec(j)[i]);
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
  (void)GetOrComputeGroupMembers(&cache, inst.data, inst.grouping);
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

TEST(ArtifactCacheTest, RebalanceSkipsCachesHoldingOnlyTheirProjection) {
  // Cache A's only charge is its session-owned projection, which Clear()
  // keeps; cache B holds a skyline and a net over the budget. Evicting A
  // would free nothing, so Rebalance(B) must leave A alone, clear B, and
  // count exactly that one eviction.
  const Instance inst = MakeInstance();
  CacheArbiter arbiter(/*budget_bytes=*/8192);
  ArtifactCache a, b;
  int a_clears = 0, b_clears = 0;
  arbiter.Register(&a, "a", [&] {
    ++a_clears;
    a.Clear();
  });
  arbiter.Register(&b, "b", [&] {
    ++b_clears;
    b.Clear();
  });
  a.AccountProjection(/*hit=*/false, 4096);
  arbiter.Touch(&a);
  Rng rng(1);
  (void)GetOrSampleNet(&b, 3, 512, &rng);
  (void)GetOrComputeSkyline(&b, inst.data);
  arbiter.Touch(&b);
  ASSERT_GT(arbiter.total_bytes(), arbiter.budget_bytes());

  arbiter.Rebalance(&b);
  EXPECT_EQ(a_clears, 0);
  EXPECT_EQ(b_clears, 1);
  EXPECT_EQ(arbiter.evictions(), 1u);
  EXPECT_EQ(arbiter.total_bytes(), 4096u);

  // Over budget on pinned bytes alone: nothing is left to evict.
  a.AccountProjection(/*hit=*/false, 8192);
  arbiter.Rebalance();
  EXPECT_EQ(a_clears, 0);
  EXPECT_EQ(arbiter.evictions(), 1u);
  arbiter.Unregister(&a);
  arbiter.Unregister(&b);
}

}  // namespace
}  // namespace fairhms
