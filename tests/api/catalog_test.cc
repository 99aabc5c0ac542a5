// DatasetCatalog: routed queries are bit-identical to standalone sessions
// (with and without a global budget forcing cache-entry evictions), the
// per-session byte accounting agrees with the process-wide arbiter total,
// a snapshot round trip through Save/Load preserves solve results for
// every registered algorithm plus the maintained skyline state,
// insert-routing provenance survives a restore even for combinations whose
// rows were all erased, and budget eviction counts one eviction per
// dropped entry and lets a dynamic session copy what it evicted back out
// of its skyline index.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/session.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/incremental.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

// Spelled out as in session_update_test.cc; RegistryCoversUpdateSuite
// there guards against drift.
const std::string kAlgorithms[] = {
    "bigreedy", "bigreedy+", "dmm",    "fair_greedy", "g_dmm",  "g_greedy",
    "g_hs",     "g_sphere",  "hs",     "intcov",      "rdp_greedy", "sphere"};

struct Instance {
  Dataset data{1};
  Grouping grouping;
};

Instance MakeInstance(uint64_t seed, size_t n = 150, int dim = 3,
                      int groups = 3) {
  Instance inst;
  Rng rng(seed);
  inst.data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  inst.grouping = GroupBySumRank(inst.data, groups);
  return inst;
}

SolverRequest MakeRequest(const std::string& algo, int k,
                          const Instance& inst) {
  SolverRequest request;
  request.algorithm = algo;
  request.bounds = GroupBounds::Proportional(
      k, inst.grouping.LiveCounts(inst.data), 0.2);
  request.threads = 1;
  return request;
}

void ExpectResultsEqual(const SolverResult& a, const SolverResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.solution.rows, b.solution.rows) << label;
  EXPECT_EQ(a.solution.mhr, b.solution.mhr) << label;
  EXPECT_EQ(a.group_counts, b.group_counts) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
}

/// Interleaves queries across three catalog datasets and checks every
/// response against a standalone session pinned to an identical copy.
/// With `budget_bytes` small enough, every rebalance evicts the cold
/// sessions — the point is that results stay identical and no query fails.
void RunInterleavedCheck(uint64_t budget_bytes, uint64_t* evictions_out) {
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  std::vector<Instance> standalone_data;
  std::vector<SolverSession> standalone;
  DatasetCatalog catalog(DatasetCatalog::Options{budget_bytes});
  for (size_t i = 0; i < names.size(); ++i) {
    // Distinct seeds and group counts, so a routing mix-up cannot hide.
    Instance inst = MakeInstance(100 + i, 120 + 30 * i, 3,
                                 2 + static_cast<int>(i));
    ASSERT_TRUE(catalog
                    .Register(names[i], inst.data, inst.grouping)
                    .ok());
    standalone_data.push_back(std::move(inst));
  }
  for (Instance& inst : standalone_data) {
    auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    standalone.push_back(std::move(*session));
  }

  const std::vector<std::string> algos = {"intcov", "g_greedy", "hs"};
  for (int round = 0; round < 2; ++round) {
    for (const std::string& algo : algos) {
      for (int k : {5, 8}) {
        for (size_t i = 0; i < names.size(); ++i) {
          const SolverRequest request =
              MakeRequest(algo, k, standalone_data[i]);
          auto routed = catalog.Solve(names[i], request);
          ASSERT_TRUE(routed.ok())
              << names[i] << "/" << algo << ": " << routed.status().ToString();
          auto direct = standalone[i].Solve(request);
          ASSERT_TRUE(direct.ok()) << direct.status().ToString();
          ExpectResultsEqual(*routed, *direct, names[i] + "/" + algo);
        }
      }
    }
  }

  // The per-session byte reports and the arbiter's global charge are two
  // views of one ledger; they must agree exactly.
  uint64_t session_bytes = 0;
  for (const std::string& name : catalog.List()) {
    auto session = catalog.Session(name);
    ASSERT_TRUE(session.ok());
    session_bytes += (*session)->cache_stats().TotalBytes();
  }
  EXPECT_EQ(session_bytes, catalog.arbiter()->total_bytes());
  *evictions_out = catalog.arbiter()->evictions();
}

TEST(CatalogTest, InterleavedRoutedQueriesMatchStandaloneSessions) {
  uint64_t evictions = 0;
  RunInterleavedCheck(/*budget_bytes=*/0, &evictions);
  EXPECT_EQ(evictions, 0u);  // Unlimited budget never evicts.
}

TEST(CatalogTest, GlobalBudgetForcesEvictionNotFailure) {
  uint64_t evictions = 0;
  // 1 KiB holds no working set: every rebalance must evict the cold
  // sessions, and every query above still has to succeed bit-identically
  // (eviction degrades to recomputation, never to failure).
  RunInterleavedCheck(/*budget_bytes=*/1024, &evictions);
  EXPECT_GT(evictions, 0u);
}

TEST(CatalogTest, EvictionsCountEntriesAndKeepTheProjection) {
  // A one-byte budget: the rebalance after a solve evicts every entry of
  // the serving session, one eviction each, down to its pinned projection.
  Instance inst = MakeInstance(7);
  DatasetCatalog catalog(DatasetCatalog::Options{/*cache_budget_bytes=*/1});
  ASSERT_TRUE(catalog.Register("t", inst.data, inst.grouping).ok());
  SolverSession* session = catalog.Session("t").value();
  ASSERT_TRUE(catalog.Solve("t", MakeRequest("bigreedy", 6, inst)).ok());
  // A net, an evaluator, the skyline and the fair pool at the least.
  EXPECT_GE(catalog.arbiter()->evictions(), 4u);
  EXPECT_EQ(session->cache_stats().TotalBytes(),
            session->cache_stats().projections.bytes);
  EXPECT_EQ(catalog.arbiter()->total_bytes(),
            session->cache_stats().TotalBytes());
}

TEST(CatalogTest, EvictedPublishedArtifactsAreRepublishedNotRecomputed) {
  // After an insert the session's SkylineIndex maintains the skyline, pool
  // and group counts. A one-byte budget evicts them after every solve, so
  // each next query misses them once and copies them back out of the index
  // (ArtifactCache::SetIndex): answers stay equal to a quiet session's.
  Instance inst = MakeInstance(8);
  Instance copy = inst;
  DatasetCatalog catalog(DatasetCatalog::Options{/*cache_budget_bytes=*/1});
  ASSERT_TRUE(catalog.Register("t", inst.data, inst.grouping).ok());
  SolverSession* session = catalog.Session("t").value();
  ASSERT_TRUE(session->Insert({0.97, 0.95, 0.99}, {}, 1).ok());
  auto reference = SolverSession::CreateDynamic(&copy.data, &copy.grouping);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->Insert({0.97, 0.95, 0.99}, {}, 1).ok());

  uint64_t solves = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::string algo : {"bigreedy", "g_greedy"}) {
      const SolverRequest request = MakeRequest(algo, 6, copy);
      auto routed = catalog.Solve("t", request);
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      auto direct = reference->Solve(request);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ExpectResultsEqual(*routed, *direct, algo);
      ++solves;
      const CacheStats stats = session->cache_stats();
      // One miss per solve: the previous rebalance evicted them.
      EXPECT_EQ(stats.skylines.misses, solves) << algo << " round " << round;
      EXPECT_EQ(stats.pools.misses, solves) << algo << " round " << round;
      EXPECT_EQ(stats.TotalBytes(), stats.projections.bytes);
    }
  }
}

TEST(CatalogTest, SaveLoadPreservesSolveResultsForEveryAlgorithm) {
  // Mutate through the catalog first, so the snapshot carries tombstones,
  // appended rows and an incrementally maintained skyline.
  Instance inst = MakeInstance(/*seed=*/303, /*n=*/400, /*dim=*/3);
  DatasetCatalog live;
  ASSERT_TRUE(live.Register("d", inst.data, inst.grouping).ok());
  auto session = live.Session("d");
  ASSERT_TRUE(session.ok());
  Rng rng(404);
  for (int i = 0; i < 15; ++i) {
    const int g = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>((*session)->grouping().num_groups)));
    ASSERT_TRUE(
        (*session)
            ->Insert({rng.Uniform(), rng.Uniform(), rng.Uniform()}, {}, g)
            .ok());
  }
  for (int i = 0; i < 10; ++i) {
    const std::vector<int> rows = (*session)->data().LiveRows();
    ASSERT_TRUE((*session)->Erase({rows[rng.UniformInt(rows.size())]}).ok());
  }

  Instance mutated;
  mutated.data = (*session)->data();
  mutated.grouping = (*session)->grouping();
  std::vector<SolverResult> warm;
  for (const std::string& algo : kAlgorithms) {
    auto result = live.Solve("d", MakeRequest(algo, 12, mutated));
    ASSERT_TRUE(result.ok()) << algo << ": " << result.status().ToString();
    warm.push_back(std::move(*result));
  }

  const std::string path = testing::UniqueTempPath("fairhms_catalog_roundtrip");
  ASSERT_TRUE(live.Save("d", path).ok());

  DatasetCatalog restored_catalog;
  ASSERT_TRUE(restored_catalog.Load("d", path).ok());
  std::remove(path.c_str());
  std::remove((path + ".plan").c_str());

  for (size_t i = 0; i < warm.size(); ++i) {
    auto restored =
        restored_catalog.Solve("d", MakeRequest(kAlgorithms[i], 12, mutated));
    ASSERT_TRUE(restored.ok())
        << kAlgorithms[i] << ": " << restored.status().ToString();
    ExpectResultsEqual(warm[i], *restored, kAlgorithms[i]);
  }

  // The restored skyline index is the saved one, state for state — no
  // dominance test recomputed it into some other equivalent shape.
  auto restored_session = restored_catalog.Session("d");
  ASSERT_TRUE(restored_session.ok());
  ASSERT_NE((*session)->index(), nullptr);
  ASSERT_NE((*restored_session)->index(), nullptr);
  const SkylineIndexState before = (*session)->index()->SaveState();
  const SkylineIndexState after = (*restored_session)->index()->SaveState();
  EXPECT_EQ(before.global.skyline, after.global.skyline);
  EXPECT_EQ(before.global.dominated, after.global.dominated);
  ASSERT_EQ(before.per_group.size(), after.per_group.size());
  for (size_t g = 0; g < before.per_group.size(); ++g) {
    EXPECT_EQ(before.per_group[g].skyline, after.per_group[g].skyline);
    EXPECT_EQ(before.per_group[g].dominated, after.per_group[g].dominated);
  }
}

TEST(CatalogTest, CostModelSidecarSurvivesSaveLoad) {
  // Save writes the session's cost model next to the snapshot
  // (`<path>.plan`); Load restores it, so a reloaded catalog plans
  // `algorithm: "auto"` queries as well as the one that was saved.
  Instance inst = MakeInstance(/*seed=*/505, /*n=*/200, /*dim=*/3);
  DatasetCatalog live;
  ASSERT_TRUE(live.Register("d", inst.data, inst.grouping).ok());
  ASSERT_TRUE(live.Solve("d", MakeRequest("bigreedy", 8, inst)).ok());
  ASSERT_TRUE(live.Solve("d", MakeRequest("fair_greedy", 8, inst)).ok());
  auto session = live.Session("d");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->cost_model()->observations(), 2u);
  const std::string serialized = (*session)->cost_model()->Serialize();

  const std::string path = testing::UniqueTempPath("fairhms_catalog_costmodel");
  ASSERT_TRUE(live.Save("d", path).ok());

  DatasetCatalog restored;
  ASSERT_TRUE(restored.Load("d", path).ok());
  auto restored_session = restored.Session("d");
  ASSERT_TRUE(restored_session.ok());
  EXPECT_EQ((*restored_session)->cost_model()->Serialize(), serialized);

  // An "auto" query against the restored catalog plans from measurements,
  // not from the cold defaults (the echo carries a real prediction).
  auto planned = restored.Solve("d", MakeRequest("auto", 8, inst));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_TRUE(planned->plan.planned);
  EXPECT_GE(planned->plan.predicted_ms, 0.0);

  // A missing sidecar is not an error — the session just starts cold.
  std::remove((path + ".plan").c_str());
  DatasetCatalog cold;
  ASSERT_TRUE(cold.Load("d", path).ok());
  auto cold_session = cold.Session("d");
  ASSERT_TRUE(cold_session.ok());
  EXPECT_EQ((*cold_session)->cost_model()->observations(), 0u);
  std::remove(path.c_str());
}

TEST(CatalogTest, EmptiedComboRouteSurvivesRestore) {
  // A combination whose rows were all erased is not derivable from the
  // table; only the serialized combination table can preserve its route.
  Dataset data(3);
  data.AddCategoricalColumn("region", {"north", "south"});
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    data.AddRow({rng.Uniform(), rng.Uniform(), rng.Uniform()}, {i % 2});
  }
  Grouping grouping = GroupByCategoricalProduct(data, {"region"}).value();

  DatasetCatalog live;
  ASSERT_TRUE(live.Register("d", data, grouping, {"region"}).ok());
  auto session = live.Session("d");
  ASSERT_TRUE(session.ok());
  const int west = (*session)->mutable_data()->AddCategoricalLabel(0, "west");
  auto row = (*session)->Insert({0.9, 0.1, 0.4}, {west});
  ASSERT_TRUE(row.ok());
  const int west_group = (*session)->grouping().group_of[
      static_cast<size_t>(*row)];
  ASSERT_TRUE((*session)->Erase({*row}).ok());  // Empty the combination.

  const std::string path = testing::UniqueTempPath("fairhms_catalog_combo");
  ASSERT_TRUE(live.Save("d", path).ok());
  DatasetCatalog restored;
  ASSERT_TRUE(restored.Load("d", path).ok());
  std::remove(path.c_str());
  std::remove((path + ".plan").c_str());

  auto restored_session = restored.Session("d");
  ASSERT_TRUE(restored_session.ok());
  EXPECT_EQ((*restored_session)->grouping().num_groups,
            (*session)->grouping().num_groups);
  // The route still resolves to the original group id — a fresh insert
  // with the emptied combination must not open a second group for it.
  auto resolved = (*restored_session)->ResolveInsertGroup({west});
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(*resolved, west_group);
  auto reinserted = (*restored_session)->Insert({0.8, 0.2, 0.5}, {west});
  ASSERT_TRUE(reinserted.ok());
  EXPECT_EQ((*restored_session)->grouping().group_of[
                static_cast<size_t>(*reinserted)],
            west_group);
  EXPECT_EQ((*restored_session)->grouping().num_groups,
            (*session)->grouping().num_groups);
}

TEST(CatalogTest, DropReleasesNameAndCacheCharge) {
  Instance a = MakeInstance(1), b = MakeInstance(2);
  DatasetCatalog catalog;
  ASSERT_TRUE(catalog.Register("a", a.data, a.grouping).ok());
  ASSERT_TRUE(catalog.Register("b", b.data, b.grouping).ok());
  ASSERT_TRUE(catalog.Solve("a", MakeRequest("intcov", 6, a)).ok());
  ASSERT_TRUE(catalog.Solve("b", MakeRequest("intcov", 6, b)).ok());
  EXPECT_GT(catalog.arbiter()->total_bytes(), 0u);

  const uint64_t version_before = catalog.version();
  ASSERT_TRUE(catalog.Drop("a").ok());
  EXPECT_EQ(catalog.version(), version_before + 1);
  EXPECT_EQ(catalog.List(), std::vector<std::string>{"b"});
  EXPECT_EQ(catalog.Solve("a", MakeRequest("intcov", 6, a)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.Drop("a").code(), StatusCode::kNotFound);

  // The dropped session's bytes left the global ledger with it.
  auto remaining = catalog.Session("b");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ((*remaining)->cache_stats().TotalBytes(),
            catalog.arbiter()->total_bytes());

  // The name is reusable.
  ASSERT_TRUE(catalog.Register("a", a.data, a.grouping).ok());
}

}  // namespace
}  // namespace fairhms
