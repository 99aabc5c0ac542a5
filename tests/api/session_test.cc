// SolverSession: the multi-query engine must (a) pin and validate its
// dataset/grouping, (b) return warm results bit-identical to the cold
// Solver::Solve path, (c) account artifact hits/misses/bytes truthfully,
// and (d) keep cache keys isolated across seeds, net sizes and thread
// counts.

#include "api/session.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {
namespace {

struct Instance {
  Dataset data{1};
  Grouping grouping;
  GroupBounds bounds;
};

/// Small 4D instance with quotas >= dim so every algorithm is feasible on
/// the session tests that sweep the registry.
Instance MakeInstance(int dim = 4, int k = 8, uint64_t seed = 11,
                      size_t n = 400) {
  Instance inst;
  Rng rng(seed);
  inst.data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  inst.grouping = GroupBySumRank(inst.data, 2);
  inst.bounds = GroupBounds::Proportional(k, inst.grouping.Counts(), 0.3);
  return inst;
}

SolverRequest MakeRequest(const Instance& inst, const std::string& algo) {
  SolverRequest req;
  req.data = &inst.data;
  req.grouping = &inst.grouping;
  req.bounds = inst.bounds;
  req.algorithm = algo;
  return req;
}

void ExpectSameResult(const SolverResult& a, const SolverResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.solution.rows, b.solution.rows) << label;
  EXPECT_EQ(a.solution.mhr, b.solution.mhr) << label;  // Bit-identical.
  EXPECT_EQ(a.group_counts, b.group_counts) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
  EXPECT_EQ(a.note, b.note) << label;
}

TEST(SolverSessionTest, CreateValidatesPinnedObjects) {
  const Instance inst = MakeInstance();
  EXPECT_EQ(SolverSession::Create(nullptr, &inst.grouping).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolverSession::Create(&inst.data, nullptr).status().code(),
            StatusCode::kInvalidArgument);

  const Dataset empty(2);
  EXPECT_EQ(SolverSession::Create(&empty, &inst.grouping).status().code(),
            StatusCode::kInvalidArgument);

  Grouping short_grouping = inst.grouping;
  short_grouping.group_of.pop_back();
  EXPECT_EQ(
      SolverSession::Create(&inst.data, &short_grouping).status().code(),
      StatusCode::kInvalidArgument);

  EXPECT_TRUE(SolverSession::Create(&inst.data, &inst.grouping).ok());
}

TEST(SolverSessionTest, FillsPinnedObjectsIntoRequests) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  SolverRequest req = MakeRequest(inst, "fair_greedy");
  auto with_pointers = session->Solve(req);
  ASSERT_TRUE(with_pointers.ok()) << with_pointers.status().ToString();

  req.data = nullptr;
  req.grouping = nullptr;
  auto filled = session->Solve(req);
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  ExpectSameResult(*with_pointers, *filled, "null-filled request");
}

TEST(SolverSessionTest, RejectsForeignPinnedObjects) {
  const Instance inst = MakeInstance();
  const Instance other = MakeInstance(4, 8, /*seed=*/99);
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  SolverRequest req = MakeRequest(inst, "fair_greedy");
  req.data = &other.data;
  auto foreign_data = session->Solve(req);
  ASSERT_FALSE(foreign_data.ok());
  EXPECT_EQ(foreign_data.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(foreign_data.status().message().find("pinned dataset"),
            std::string::npos);

  req = MakeRequest(inst, "fair_greedy");
  req.grouping = &other.grouping;
  auto foreign_grouping = session->Solve(req);
  ASSERT_FALSE(foreign_grouping.ok());
  EXPECT_EQ(foreign_grouping.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(foreign_grouping.status().message().find("pinned grouping"),
            std::string::npos);
}

TEST(SolverSessionTest, WarmResultsAreBitIdenticalToCold) {
  // The core guarantee, spot-checked across algorithm families (net-based
  // fair, unconstrained-baseline, exact-2D-projection, group-adapted); the
  // full 12-algorithm sweep lives in the integration determinism suite.
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());
  for (const char* algo :
       {"bigreedy", "bigreedy+", "sphere", "hs", "intcov", "g_hs"}) {
    const SolverRequest req = MakeRequest(inst, algo);
    auto cold = Solver::Solve(req);
    ASSERT_TRUE(cold.ok()) << algo << ": " << cold.status().ToString();
    auto warm_first = session->Solve(req);
    ASSERT_TRUE(warm_first.ok())
        << algo << ": " << warm_first.status().ToString();
    auto warm_second = session->Solve(req);
    ASSERT_TRUE(warm_second.ok())
        << algo << ": " << warm_second.status().ToString();
    ExpectSameResult(*cold, *warm_first, std::string(algo) + " first");
    ExpectSameResult(*cold, *warm_second, std::string(algo) + " repeat");
  }
}

TEST(SolverSessionTest, CacheHitsAccumulateAcrossRepeatedQueries) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  const SolverRequest req = MakeRequest(inst, "bigreedy");
  ASSERT_TRUE(session->Solve(req).ok());
  const CacheStats after_first = session->cache_stats();
  EXPECT_GE(after_first.nets.misses, 1u);
  EXPECT_GE(after_first.evaluators.misses, 1u);
  EXPECT_GE(after_first.pools.misses, 1u);
  EXPECT_GT(after_first.TotalBytes(), 0u);

  ASSERT_TRUE(session->Solve(req).ok());
  const CacheStats after_second = session->cache_stats();
  EXPECT_GE(after_second.nets.hits, 1u);
  EXPECT_GE(after_second.evaluators.hits, 1u);
  EXPECT_GE(after_second.pools.hits, 1u);
  // The repeat created no new artifacts.
  EXPECT_EQ(after_second.TotalMisses(), after_first.TotalMisses());
  EXPECT_EQ(after_second.TotalBytes(), after_first.TotalBytes());
}

TEST(SolverSessionTest, CacheKeysIsolateSeedsAndNetSizes) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  SolverRequest req = MakeRequest(inst, "bigreedy");
  req.seed = 1;
  ASSERT_TRUE(session->Solve(req).ok());
  const uint64_t nets_after_one = session->cache_stats().nets.misses;

  // A different seed must sample its own net, not alias seed 1's — and the
  // warm result must still equal its own cold path.
  req.seed = 2;
  auto warm = session->Solve(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(session->cache_stats().nets.misses, nets_after_one);
  auto cold = Solver::Solve(req);
  ASSERT_TRUE(cold.ok());
  ExpectSameResult(*cold, *warm, "seed 2");

  // Same seed, different net size: again a distinct artifact.
  const uint64_t nets_after_two = session->cache_stats().nets.misses;
  req.params.SetInt("net_size", 77);
  auto sized = session->Solve(req);
  ASSERT_TRUE(sized.ok());
  EXPECT_GT(session->cache_stats().nets.misses, nets_after_two);
  auto sized_cold = Solver::Solve(req);
  ASSERT_TRUE(sized_cold.ok());
  ExpectSameResult(*sized_cold, *sized, "net_size 77");
}

TEST(SolverSessionTest, CacheKeysIsolateThreadCounts) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  SolverRequest req = MakeRequest(inst, "bigreedy");
  req.threads = 1;
  auto serial = session->Solve(req);
  ASSERT_TRUE(serial.ok());
  const uint64_t evals_serial = session->cache_stats().evaluators.misses;

  req.threads = 2;
  auto parallel = session->Solve(req);
  ASSERT_TRUE(parallel.ok());
  // Distinct evaluator entry (threads is part of the key), same bits (the
  // PR 2 cross-thread determinism contract).
  EXPECT_GT(session->cache_stats().evaluators.misses, evals_serial);
  ExpectSameResult(*serial, *parallel, "threads 1 vs 2");
}

TEST(SolverSessionTest, ProjectionPreparedOncePerSession) {
  const Instance inst = MakeInstance(/*dim=*/4);
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  const SolverRequest req = MakeRequest(inst, "intcov");
  auto first = session->Solve(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->note.find("projection"), std::string::npos);
  EXPECT_EQ(session->cache_stats().projections.misses, 1u);
  EXPECT_EQ(session->cache_stats().projections.hits, 0u);

  auto second = session->Solve(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session->cache_stats().projections.misses, 1u);
  EXPECT_EQ(session->cache_stats().projections.hits, 1u);
  ExpectSameResult(*first, *second, "projected intcov repeat");

  // A dynamic session re-projects once per mutation: the first exact-2D
  // query after an Insert misses, the next one hits, and the bytes count
  // only the appended row.
  Instance dyn = MakeInstance(/*dim=*/4);
  auto live = SolverSession::CreateDynamic(&dyn.data, &dyn.grouping);
  ASSERT_TRUE(live.ok());
  const SolverRequest dyn_req = MakeRequest(dyn, "intcov");
  ASSERT_TRUE(live->Solve(dyn_req).ok());
  ASSERT_TRUE(live->Insert({0.9, 0.9, 0.1, 0.1}, {}, 0).ok());
  auto after_insert = live->Solve(dyn_req);
  ASSERT_TRUE(after_insert.ok()) << after_insert.status().ToString();
  EXPECT_EQ(live->cache_stats().projections.misses, 2u);
  EXPECT_EQ(live->cache_stats().projections.hits, 0u);
  EXPECT_EQ(live->cache_stats().projections.bytes,
            dyn.data.size() * 2 * sizeof(double));
  auto repeat = live->Solve(dyn_req);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(live->cache_stats().projections.misses, 2u);
  EXPECT_EQ(live->cache_stats().projections.hits, 1u);
  ExpectSameResult(*after_insert, *repeat, "re-projected intcov repeat");
}

TEST(SolverSessionTest, SkylineSharedAcrossUnconstrainedBaselines) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  // Different baselines, same pinned skyline: one miss, then hits.
  ASSERT_TRUE(session->Solve(MakeRequest(inst, "rdp_greedy")).ok());
  const CacheStats after_first = session->cache_stats();
  EXPECT_EQ(after_first.skylines.misses, 1u);
  ASSERT_TRUE(session->Solve(MakeRequest(inst, "sphere")).ok());
  const CacheStats after_second = session->cache_stats();
  EXPECT_EQ(after_second.skylines.misses, 1u);
  EXPECT_GT(after_second.skylines.hits, after_first.skylines.hits);
}

TEST(SolverSessionTest, ClearCacheKeepsResultsIdentical) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  const SolverRequest req = MakeRequest(inst, "bigreedy");
  auto before = session->Solve(req);
  ASSERT_TRUE(before.ok());
  EXPECT_GT(session->cache_stats().TotalBytes(), 0u);

  session->ClearCache();
  EXPECT_EQ(session->cache_stats().TotalBytes(), 0u);

  auto after = session->Solve(req);
  ASSERT_TRUE(after.ok());
  ExpectSameResult(*before, *after, "post-clear");
}

TEST(SolverSessionTest, GroupCountsMatchGrouping) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->group_counts(), inst.grouping.Counts());
  EXPECT_EQ(&session->data(), &inst.data);
  EXPECT_EQ(&session->grouping(), &inst.grouping);
}

TEST(SolverSessionTest, ValidationErrorsMatchSolverValidate) {
  const Instance inst = MakeInstance();
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  SolverRequest unknown = MakeRequest(inst, "no_such_algo");
  auto result = session->Solve(unknown);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("unknown algorithm"),
            std::string::npos);

  SolverRequest bad_param = MakeRequest(inst, "bigreedy");
  bad_param.params.SetDouble("eps", 0.0);
  EXPECT_EQ(session->Solve(bad_param).status().code(),
            StatusCode::kInvalidArgument);

  SolverRequest bad_k = MakeRequest(inst, "bigreedy");
  bad_k.bounds.k = 0;
  EXPECT_EQ(session->Solve(bad_k).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairhms
