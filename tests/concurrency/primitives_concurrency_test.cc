// Concurrency regression tests for the library's shared mutable
// primitives. Each test races the documented-thread-safe entry points of
// one component against each other and then checks an invariant that only
// holds if the internal locking is right. They are sized for
// ThreadSanitizer (the clang-tsan CI leg runs them with every
// interleaving-detection pass enabled), but the invariants are checked in
// every build.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/metrics.h"
#include "api/protocol.h"
#include "common/random.h"
#include "core/artifact_cache.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "plan/cost_model.h"

namespace fairhms {
namespace {

/// Readers hammer every lookup + stats path of two arbiter-managed caches
/// while each thread also inserts fresh nets (which charge the arbiter
/// after the cache lock is released). Invariant: once the threads join,
/// the bytes the caches report and the bytes the arbiter has charged for
/// them agree exactly — a lost update or torn read in the accounting
/// handoff breaks the equality.
TEST(CacheArbiterConcurrencyTest, AccountingStaysConsistentUnderRaces) {
  Rng data_rng(11);
  Dataset data = GenIndependent(120, 3, &data_rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 3);

  CacheArbiter arbiter(/*budget_bytes=*/0);  // Unlimited: never evicts.
  ArtifactCache cache_a;
  ArtifactCache cache_b;
  arbiter.Register(&cache_a, "a", [] {});
  arbiter.Register(&cache_b, "b", [] {});

  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache* mine = t % 2 == 0 ? &cache_a : &cache_b;
      ArtifactCache* other = t % 2 == 0 ? &cache_b : &cache_a;
      for (int i = 0; i < kIters; ++i) {
        // Fresh rng state per (thread, iter): every Net call is a miss
        // that inserts a new entry and charges the arbiter.
        Rng rng(static_cast<uint64_t>(t) * 1000 + i + 1);
        (void)GetOrSampleNet(mine, 3, 16 + static_cast<size_t>(t), &rng);
        (void)GetOrComputeSkyline(mine, data);
        (void)GetOrComputeGroupCounts(other, data, grouping);
        (void)GetOrComputeFairPool(other, data, grouping);
        mine->AccountProjection(i % 2 == 0, 64);
        arbiter.Touch(mine);
        (void)mine->stats();
        (void)arbiter.total_bytes();
        (void)arbiter.Ledger();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t cache_bytes =
      cache_a.stats().TotalBytes() + cache_b.stats().TotalBytes();
  EXPECT_EQ(cache_bytes, arbiter.total_bytes());
  EXPECT_EQ(arbiter.evictions(), 0u);

  arbiter.Unregister(&cache_a);
  arbiter.Unregister(&cache_b);
  EXPECT_EQ(arbiter.total_bytes(), 0u);
}

/// A lookup never waits on another key's build: while one thread sits
/// inside a build that cannot finish until released, a net hit on another
/// thread completes. (Were builds run under the cache lock, the hit would
/// block until the release and the bounded wait below would fail.)
TEST(ArtifactCacheConcurrencyTest, HitIsNotBlockedByAnotherKeysBuild) {
  ArtifactCache cache;
  Rng seed_rng(21);
  const std::shared_ptr<const UtilityNet> warm =
      GetOrSampleNet(&cache, 3, 32, &seed_rng);

  std::promise<void> build_started;
  std::promise<void> release_build;
  std::shared_future<void> released = release_build.get_future().share();
  int owner = 0;  // Only its address matters: the slow entry's owner key.
  std::thread slow_build([&] {
    ArtifactCache::Key key{ArtifactCache::Kind::kSkyline, &owner, nullptr,
                           {1}, {1, 0}};
    (void)cache.GetOrBuild<std::vector<int>>(key, [&] {
      build_started.set_value();
      released.wait();
      return std::make_shared<const std::vector<int>>(3, 7);
    });
  });
  build_started.get_future().wait();

  std::future<std::shared_ptr<const UtilityNet>> hit =
      std::async(std::launch::async, [&] {
        Rng rng(21);
        return GetOrSampleNet(&cache, 3, 32, &rng);
      });
  const bool hit_done =
      hit.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release_build.set_value();
  slow_build.join();
  ASSERT_TRUE(hit_done) << "a net hit waited on a skyline build";
  EXPECT_EQ(hit.get().get(), warm.get());
  EXPECT_EQ(cache.stats().nets.hits, 1u);
  EXPECT_EQ(cache.stats().skylines.misses, 1u);
}

/// Concurrent misses on one evaluator key build it once: the first thread
/// builds outside the lock, the rest wait for that key and count hits, and
/// everyone gets the same shared artifact.
TEST(ArtifactCacheConcurrencyTest, ConcurrentMissesOnOneKeyBuildOnce) {
  Rng data_rng(31);
  const Dataset data = GenIndependent(400, 4, &data_rng).NormalizedMinMax();
  std::vector<int> rows(data.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  ArtifactCache cache;
  Rng net_rng(32);
  const std::shared_ptr<const UtilityNet> net =
      GetOrSampleNet(&cache, 4, 2000, &net_rng);

  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const NetEvaluator>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<size_t>(t)] =
          GetOrBuildEvaluator(&cache, data, net, rows, rows, 1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evaluators.misses, 1u);
  EXPECT_EQ(stats.evaluators.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.evaluators.bytes, got[0]->ResidentBytes());
  for (const auto& evaluator : got) EXPECT_EQ(evaluator.get(), got[0].get());
}

/// Recorders and snapshotters race; afterwards the exact counters
/// (count / errors / total_ms are exact forever, only percentiles window)
/// must equal what was recorded, and no snapshot may ever run backwards.
TEST(OpMetricsConcurrencyTest, RecordAndSnapshotRace) {
  OpMetrics metrics;
  constexpr int kRecorders = 4;
  constexpr int kPerThread = 2000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> snapshotters;
  for (int s = 0; s < 2; ++s) {
    snapshotters.emplace_back([&] {
      uint64_t last_total = 0;
      while (!stop.load()) {
        const OpMetrics::Snapshot snap = metrics.snapshot();
        const uint64_t total = snap.served + snap.failed;
        EXPECT_GE(total, last_total);  // Counters never run backwards.
        last_total = total;
      }
    });
  }

  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      const ProtocolOp op =
          t % 2 == 0 ? ProtocolOp::kQuery : ProtocolOp::kStats;
      for (int i = 0; i < kPerThread; ++i) {
        metrics.Record(op, /*ok=*/i % 10 != 0, /*ms=*/0.25);
      }
    });
  }
  for (std::thread& thread : recorders) thread.join();
  stop.store(true);
  for (std::thread& thread : snapshotters) thread.join();

  const OpMetrics::Snapshot snap = metrics.snapshot();
  const uint64_t expected_total =
      static_cast<uint64_t>(kRecorders) * kPerThread;
  EXPECT_EQ(snap.served + snap.failed, expected_total);
  EXPECT_EQ(snap.failed, expected_total / 10);
}

/// Concurrent Observe / Predict / Serialize; afterwards the observation
/// count is exact and the serialized form parses back losslessly.
TEST(CostModelConcurrencyTest, ObservePredictSerializeRace) {
  CostModel model;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string algorithm = t % 2 == 0 ? "intcov" : "bigreedy";
      for (int i = 0; i < kPerThread; ++i) {
        const CostSignature sig = CostSignature::Make(
            /*d=*/3, /*n=*/1000 + static_cast<uint64_t>(i), /*k=*/10,
            /*num_groups=*/3, /*bounds_tightness=*/0.5, i % 2 == 0);
        model.Observe(algorithm, sig, /*solve_ms=*/1.5,
                      /*happiness_ratio=*/0.9);
        (void)model.Predict(algorithm, sig);
        if (i % 50 == 0) (void)model.Serialize();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(model.observations(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  CostModel restored;
  ASSERT_TRUE(restored.Restore(model.Serialize()).ok());
  EXPECT_EQ(restored.Serialize(), model.Serialize());
}

}  // namespace
}  // namespace fairhms
