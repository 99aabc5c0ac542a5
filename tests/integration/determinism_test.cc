// Cross-thread-count determinism, exercised through the Solver::Solve
// facade: every registered algorithm must select the same rows and report a
// bit-identical mhr at threads = 1 and threads = 8. This is the contract
// that makes --threads a pure performance knob, now tested on the exact
// path the CLI and library users take.
//
// The same suite also pins the SolverSession warm-path contract: serving a
// query through a session (cold cache, then fully warm cache) must be
// bit-identical to an independent Solver::Solve, for every algorithm.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {
namespace {

constexpr int kParallelThreads = 8;

// The parameter list is spelled out (instead of reading
// AlgorithmRegistry::Names() at instantiation time) because gtest
// instantiates during static initialization, which races the registrars in
// other translation units. RegistryCoversDeterminismSuite below fails when
// the registry and this list drift apart.
const std::string kAlgorithms[] = {
    "bigreedy", "bigreedy+", "dmm",    "fair_greedy", "g_dmm",  "g_greedy",
    "g_hs",     "g_sphere",  "hs",     "intcov",      "rdp_greedy", "sphere"};

struct Instance {
  Dataset data{1};
  Grouping grouping;
  GroupBounds bounds;
};

/// 600 independent points, 3 equal groups, k = 12 with alpha = 0.2 so every
/// per-group quota is 4 = dim (g_sphere stays feasible); intcov runs on its
/// 2D projection via the facade.
Instance MakeInstance(uint64_t seed) {
  Instance inst;
  Rng rng(seed);
  inst.data = GenIndependent(600, /*dim=*/4, &rng).NormalizedMinMax();
  inst.grouping = GroupBySumRank(inst.data, 3);
  inst.bounds = GroupBounds::Proportional(12, inst.grouping.Counts(), 0.2);
  return inst;
}

class FacadeDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FacadeDeterminismTest, SerialMatchesParallel) {
  const std::string algo = GetParam();
  const Instance inst = MakeInstance(/*seed=*/101);

  SolverRequest request;
  request.data = &inst.data;
  request.grouping = &inst.grouping;
  request.bounds = inst.bounds;
  request.algorithm = algo;

  request.threads = 1;
  auto serial = Solver::Solve(request);
  request.threads = kParallelThreads;
  auto parallel = Solver::Solve(request);

  ASSERT_TRUE(serial.ok()) << algo << ": " << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << algo << ": " << parallel.status().ToString();
  EXPECT_EQ(serial->solution.rows, parallel->solution.rows) << algo;
  // Bit-identical, not approximately equal.
  EXPECT_EQ(serial->solution.mhr, parallel->solution.mhr) << algo;
  EXPECT_EQ(serial->group_counts, parallel->group_counts) << algo;
  EXPECT_EQ(serial->violations, parallel->violations) << algo;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FacadeDeterminismTest,
                         ::testing::ValuesIn(kAlgorithms));

TEST_P(FacadeDeterminismTest, SessionWarmMatchesCold) {
  const std::string algo = GetParam();
  const Instance inst = MakeInstance(/*seed=*/101);

  SolverRequest request;
  request.data = &inst.data;
  request.grouping = &inst.grouping;
  request.bounds = inst.bounds;
  request.algorithm = algo;

  auto cold = Solver::Solve(request);
  ASSERT_TRUE(cold.ok()) << algo << ": " << cold.status().ToString();

  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto first = session->Solve(request);   // Cold cache inside the session.
  auto second = session->Solve(request);  // Every artifact warm.
  ASSERT_TRUE(first.ok()) << algo << ": " << first.status().ToString();
  ASSERT_TRUE(second.ok()) << algo << ": " << second.status().ToString();

  for (const auto* warm : {&*first, &*second}) {
    EXPECT_EQ(cold->solution.rows, warm->solution.rows) << algo;
    EXPECT_EQ(cold->solution.mhr, warm->solution.mhr) << algo;
    EXPECT_EQ(cold->group_counts, warm->group_counts) << algo;
    EXPECT_EQ(cold->violations, warm->violations) << algo;
    EXPECT_EQ(cold->note, warm->note) << algo;
  }
  // The warm pass really was served from the cache.
  EXPECT_GT(session->cache_stats().TotalHits(), 0u) << algo;
}

TEST(FacadeDeterminismTest, RegistryCoversDeterminismSuite) {
  std::vector<std::string> expected(std::begin(kAlgorithms),
                                    std::end(kAlgorithms));
  EXPECT_EQ(AlgorithmRegistry::Instance().Names(), expected)
      << "registry and determinism suite drifted apart; update kAlgorithms";
}

TEST(FacadeDeterminismTest, RepeatedSolvesAreIdentical) {
  // Same request twice (fixed seed) -> identical rows, also for the
  // randomized algorithms.
  const Instance inst = MakeInstance(/*seed=*/202);
  SolverRequest request;
  request.data = &inst.data;
  request.grouping = &inst.grouping;
  request.bounds = inst.bounds;
  for (const char* algo : {"bigreedy", "sphere", "hs"}) {
    request.algorithm = algo;
    auto first = Solver::Solve(request);
    auto second = Solver::Solve(request);
    ASSERT_TRUE(first.ok()) << algo << ": " << first.status().ToString();
    ASSERT_TRUE(second.ok()) << algo << ": " << second.status().ToString();
    EXPECT_EQ(first->solution.rows, second->solution.rows) << algo;
    EXPECT_EQ(first->solution.mhr, second->solution.mhr) << algo;
  }
}

}  // namespace
}  // namespace fairhms
