// DatasetCatalog::Solve from several threads under a one-byte cache budget:
// every solve's post-solve rebalance evicts the other sessions' whole
// caches while their solves are still running. Solves hold their cached
// artifacts (skylines, pools, group counts, nets, evaluators) by
// shared_ptr and read the session-owned 2D projection, so an eviction must
// never free anything an in-flight solve still reads — the AddressSanitizer
// leg turns a violation into a heap-use-after-free report — and every
// answer must equal the one a quiet catalog gives. A second case races two
// solves on one dynamic session under a budget that evicts some of its
// entries after every solve, while the other solve still reads them and
// copies the skyline, pool and counts the evictions drop back out of the
// session's SkylineIndex.

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {
namespace {

struct Table {
  std::string name;
  int dim;
  uint64_t seed;
  std::vector<std::string> algorithms;  ///< Alternated across solves.
};

const Table kTables[] = {
    {"a", 4, 1, {"g_greedy", "rdp_greedy"}},
    {"b", 4, 2, {"g_greedy", "rdp_greedy"}},
    // Exact-2D on d = 3: solves on the session's 2D projection.
    {"c", 3, 3, {"intcov"}},
};

void RegisterTables(DatasetCatalog* catalog) {
  for (const Table& table : kTables) {
    Rng rng(table.seed);
    Dataset data =
        GenAntiCorrelated(3000, table.dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, 3);
    ASSERT_TRUE(
        catalog->Register(table.name, std::move(data), std::move(grouping))
            .ok());
  }
}

SolverRequest MakeRequest(DatasetCatalog* catalog, const std::string& name,
                          const std::string& algorithm) {
  SolverSession* session = catalog->Session(name).value();
  SolverRequest request;
  request.algorithm = algorithm;
  request.bounds = GroupBounds::Proportional(8, session->group_counts(), 0.2);
  request.threads = 1;
  return request;
}

TEST(CatalogConcurrencyTest, EvictionMidSolveKeepsArtifactsAlive) {
  // Reference answers from a catalog nobody races.
  std::map<std::string, std::vector<int>> expected;
  {
    DatasetCatalog quiet;
    RegisterTables(&quiet);
    for (const Table& table : kTables) {
      for (const std::string& algorithm : table.algorithms) {
        auto result = quiet.Solve(table.name,
                                  MakeRequest(&quiet, table.name, algorithm));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        expected[table.name + "/" + algorithm] = result->solution.rows;
      }
    }
  }

  DatasetCatalog catalog(DatasetCatalog::Options{/*cache_budget_bytes=*/1});
  RegisterTables(&catalog);
  constexpr int kSolvesPerThread = 40;
  std::vector<std::thread> threads;
  for (const Table& table : kTables) {
    threads.emplace_back([&catalog, &expected, &table] {
      for (int i = 0; i < kSolvesPerThread; ++i) {
        const std::string& algorithm =
            table.algorithms[static_cast<size_t>(i) % table.algorithms.size()];
        auto result = catalog.Solve(
            table.name, MakeRequest(&catalog, table.name, algorithm));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->solution.rows,
                  expected.at(table.name + "/" + algorithm))
            << table.name << "/" << algorithm << " solve " << i;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(catalog.arbiter()->evictions(), 0u);
}

/// One dynamic table with an insert behind it (so its cache misses copy
/// from the SkylineIndex), and its bigreedy / g_hs requests.
void RegisterMutatedTable(DatasetCatalog* catalog) {
  Rng rng(11);
  Dataset data = GenAntiCorrelated(1500, 4, &rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 3);
  ASSERT_TRUE(
      catalog->Register("t", std::move(data), std::move(grouping)).ok());
  SolverSession* session = catalog->Session("t").value();
  ASSERT_TRUE(session->Insert({0.99, 0.98, 0.97, 0.99}, {}, 2).ok());
}

SolverRequest MutatedTableRequest(DatasetCatalog* catalog, int i) {
  SolverRequest request =
      MakeRequest(catalog, "t", i % 2 == 0 ? "bigreedy" : "g_hs");
  request.seed = static_cast<uint64_t>(1 + i % 3);
  // The answer must not depend on which solve ran before it.
  request.allow_warm_start = false;
  return request;
}

TEST(CatalogConcurrencyTest, EntryEvictionMidSolveOnOneSession) {
  constexpr int kShapes = 6;  // (algorithm, seed) pairs MutatedTableRequest
                              // cycles through.
  std::vector<std::vector<int>> expected(kShapes);
  uint64_t working_set = 0;
  {
    DatasetCatalog quiet;
    RegisterMutatedTable(&quiet);
    for (int i = 0; i < kShapes; ++i) {
      auto result = quiet.Solve("t", MutatedTableRequest(&quiet, i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      expected[static_cast<size_t>(i)] = result->solution.rows;
    }
    working_set = quiet.arbiter()->total_bytes();
  }
  // Half the quiet working set: every rebalance evicts the least recently
  // used entries of the one session while the other thread solves on it.
  DatasetCatalog catalog(
      DatasetCatalog::Options{/*cache_budget_bytes=*/working_set / 2});
  RegisterMutatedTable(&catalog);
  constexpr int kSolvesPerThread = 24;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&catalog, &expected, t] {
      for (int i = 0; i < kSolvesPerThread; ++i) {
        const int shape = (i + t) % kShapes;
        auto result =
            catalog.Solve("t", MutatedTableRequest(&catalog, shape));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->solution.rows,
                  expected[static_cast<size_t>(shape)])
            << "thread " << t << " solve " << i;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(catalog.arbiter()->evictions(), 0u);
  EXPECT_LE(catalog.arbiter()->total_bytes(), working_set / 2);
}

}  // namespace
}  // namespace fairhms
