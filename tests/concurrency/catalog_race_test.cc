// DatasetCatalog::Solve from several threads under a one-byte cache budget:
// every solve's post-solve rebalance evicts the other sessions' whole
// caches while their solves are still running. Solves hold their cached
// artifacts (skylines, group tables, nets, evaluators) by shared_ptr and
// read the session-owned 2D projection, so an eviction must never free
// anything an in-flight solve still reads — the AddressSanitizer leg turns
// a violation into a heap-use-after-free report — and every answer must
// equal the one a quiet catalog gives.

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

}  // namespace
}  // namespace fairhms
