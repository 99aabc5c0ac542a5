// Dynamic SolverSession: sessions survive dataset mutations, and a warm
// query after any mix of inserts/deletes is bit-identical to a cold
// Solver::Solve against the mutated dataset — for every registered
// algorithm. Also covers the update API surface itself (group routing,
// new-group creation, error paths), the empty-group-after-deletes
// regression end to end, and cache misses that copy from the skyline index
// only for the table it maintains.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

// Spelled out for the same static-initialization reason as
// determinism_test.cc; RegistryCoversUpdateSuite guards against drift.
const std::string kAlgorithms[] = {
    "bigreedy", "bigreedy+", "dmm",    "fair_greedy", "g_dmm",  "g_greedy",
    "g_hs",     "g_sphere",  "hs",     "intcov",      "rdp_greedy", "sphere"};

struct Instance {
  Dataset data{1};
  Grouping grouping;
};

Instance MakeInstance(uint64_t seed, size_t n = 400, int dim = 4,
                      int groups = 3) {
  Instance inst;
  Rng rng(seed);
  inst.data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  inst.grouping = GroupBySumRank(inst.data, groups);
  return inst;
}

/// Applies a deterministic burst of inserts and deletes through the
/// session (explicit group ids — the instance grouping is sum-rank).
void Churn(SolverSession* session, Dataset* data, Rng* rng, int inserts,
           int deletes) {
  const int dim = data->dim();
  const int groups = session->grouping().num_groups;
  for (int i = 0; i < inserts; ++i) {
    std::vector<double> coords(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) coords[static_cast<size_t>(j)] = rng->Uniform();
    const int g = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(groups)));
    auto row = session->Insert(coords, {}, g);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
  }
  for (int i = 0; i < deletes; ++i) {
    const std::vector<int> live = data->LiveRows();
    ASSERT_FALSE(live.empty());
    const int row = live[rng->UniformInt(live.size())];
    ASSERT_TRUE(session->Erase({row}).ok());
  }
}

class SessionUpdateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionUpdateTest, WarmAfterUpdatesMatchesColdOnMutatedData) {
  const std::string algo = GetParam();
  // dim = 3 keeps every per-group quota >= dim across the churn (the
  // g_sphere feasibility condition, as in determinism_test).
  Instance inst = MakeInstance(/*seed=*/303, /*n=*/400, /*dim=*/3);
  auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  SolverRequest request;
  request.algorithm = algo;
  request.threads = 1;

  Rng rng(404);
  for (int round = 0; round < 3; ++round) {
    // Warm the cache on the current state, then mutate.
    request.bounds = GroupBounds::Proportional(
        12, inst.grouping.LiveCounts(inst.data), 0.2);
    ASSERT_TRUE(session->Solve(request).ok()) << algo;
    Churn(&*session, &inst.data, &rng, /*inserts=*/15, /*deletes=*/10);

    request.bounds = GroupBounds::Proportional(
        12, inst.grouping.LiveCounts(inst.data), 0.2);
    auto warm = session->Solve(request);
    ASSERT_TRUE(warm.ok()) << algo << ": " << warm.status().ToString();

    SolverRequest cold_req = request;
    cold_req.data = &inst.data;
    cold_req.grouping = &inst.grouping;
    auto cold = Solver::Solve(cold_req);
    ASSERT_TRUE(cold.ok()) << algo << ": " << cold.status().ToString();

    EXPECT_EQ(warm->solution.rows, cold->solution.rows)
        << algo << " round " << round;
    EXPECT_EQ(warm->solution.mhr, cold->solution.mhr)
        << algo << " round " << round;
    EXPECT_EQ(warm->group_counts, cold->group_counts)
        << algo << " round " << round;
    EXPECT_EQ(warm->violations, cold->violations)
        << algo << " round " << round;

    // Mutations never resurrect an erased row into a solution.
    for (int row : warm->solution.rows) {
      EXPECT_TRUE(inst.data.live(static_cast<size_t>(row))) << algo;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SessionUpdateTest,
                         ::testing::ValuesIn(kAlgorithms),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '+') c = 'P';
                           }
                           return name;
                         });

TEST(SessionUpdateTest, ClearedCacheCopiesOnlyThePinnedTableFromTheIndex) {
  Instance inst = MakeInstance(/*seed=*/505, /*n=*/400, /*dim=*/3);
  auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Rng rng(606);
  Churn(&*session, &inst.data, &rng, /*inserts=*/12, /*deletes=*/9);
  session->ClearCache();
  const SkylineIndex* index = session->index();
  ASSERT_NE(index, nullptr);
  ArtifactCache* cache = session->cache();
  const Dataset& data = inst.data;
  const Grouping& grouping = inst.grouping;

  // Each lookup misses (the cache was cleared) and reads the index.
  const std::vector<int> skyline = *GetOrComputeSkyline(cache, data);
  const std::vector<int> pool = *GetOrComputeFairPool(cache, data, grouping);
  const std::vector<int> counts =
      *GetOrComputeGroupCounts(cache, data, grouping);
  EXPECT_EQ(skyline, index->skyline());
  EXPECT_EQ(skyline, ComputeSkyline(data));
  EXPECT_EQ(pool, index->fair_pool());
  EXPECT_EQ(pool, ComputeFairCandidatePool(data, grouping));
  EXPECT_EQ(counts, index->live_counts());
  EXPECT_EQ(counts, grouping.LiveCounts(data));
  CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.skylines.misses, 1u);
  EXPECT_EQ(stats.pools.misses, 1u);
  EXPECT_EQ(stats.groups.misses, 1u);

  // The 2-D projection shares the pinned table's version and tombstones,
  // but the index does not describe it: its skyline and pool are computed.
  const Dataset projection = data.Project2D();
  ASSERT_EQ(projection.version(), data.version());
  const std::vector<int> projected_skyline =
      *GetOrComputeSkyline(cache, projection);
  const std::vector<int> projected_pool =
      *GetOrComputeFairPool(cache, projection, grouping);
  EXPECT_EQ(projected_skyline, ComputeSkyline(projection));
  EXPECT_EQ(projected_pool, ComputeFairCandidatePool(projection, grouping));
  ASSERT_NE(projected_skyline, skyline);
  ASSERT_NE(projected_pool, pool);
  stats = session->cache_stats();
  EXPECT_EQ(stats.skylines.misses, 2u);
  EXPECT_EQ(stats.pools.misses, 2u);

  // A query on the projection (intcov on 3-D data) stays a cold solve's.
  SolverRequest request;
  request.algorithm = "intcov";
  request.threads = 1;
  request.bounds = GroupBounds::Proportional(
      8, grouping.LiveCounts(data), 0.2);
  auto warm = session->Solve(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  SolverRequest cold_req = request;
  cold_req.data = &inst.data;
  cold_req.grouping = &inst.grouping;
  auto cold = Solver::Solve(cold_req);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(warm->solution.rows, cold->solution.rows);
  EXPECT_EQ(warm->solution.mhr, cold->solution.mhr);
}

TEST(SessionUpdateTest, RegistryCoversUpdateSuite) {
  std::vector<std::string> expected(std::begin(kAlgorithms),
                                    std::end(kAlgorithms));
  EXPECT_EQ(AlgorithmRegistry::Instance().Names(), expected);
}

TEST(SessionUpdateTest, StaticSessionRejectsUpdates) {
  Instance inst = MakeInstance(1);
  auto session = SolverSession::Create(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->dynamic());
  EXPECT_EQ(session->Insert({0.1, 0.1, 0.1, 0.1}, {}, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->Erase({0}).code(), StatusCode::kFailedPrecondition);
}

TEST(SessionUpdateTest, InsertNeedsARoutableGroup) {
  Instance inst = MakeInstance(2);
  auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());
  // Sum-rank grouping, no columns: -1 cannot be derived...
  EXPECT_EQ(session->Insert({0.1, 0.1, 0.1, 0.1}, {}).status().code(),
            StatusCode::kInvalidArgument);
  // ...an explicit id works, an out-of-range one does not.
  EXPECT_TRUE(session->Insert({0.1, 0.1, 0.1, 0.1}, {}, 2).ok());
  EXPECT_EQ(session->Insert({0.1, 0.1, 0.1, 0.1}, {}, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionUpdateTest, CategoricalColumnsRouteAndOpenGroups) {
  Rng rng(5);
  Dataset data = MakeAdultSim(&rng, 200).NormalizedMinMax();
  auto grouping = GroupByCategorical(data, "gender");
  ASSERT_TRUE(grouping.ok());
  const int before = grouping->num_groups;
  auto session =
      SolverSession::CreateDynamic(&data, &*grouping, {"gender"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Route into an existing group by codes alone.
  std::vector<int> codes(static_cast<size_t>(data.num_categorical()), 0);
  auto row = session->Insert(
      std::vector<double>(static_cast<size_t>(data.dim()), 0.5), codes);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_LT(grouping->group_of[static_cast<size_t>(*row)], before);
  EXPECT_EQ(grouping->num_groups, before);

  // An unseen label opens a new group.
  const int gender_col = *data.FindCategorical("gender");
  codes[static_cast<size_t>(gender_col)] =
      data.AddCategoricalLabel(gender_col, "nonbinary");
  auto row2 = session->Insert(
      std::vector<double>(static_cast<size_t>(data.dim()), 0.5), codes);
  ASSERT_TRUE(row2.ok()) << row2.status().ToString();
  EXPECT_EQ(grouping->num_groups, before + 1);
  EXPECT_EQ(grouping->group_of[static_cast<size_t>(*row2)], before);
  EXPECT_EQ(grouping->names.back(), "nonbinary");

  // The new group is queryable right away under proportional bounds.
  SolverRequest request;
  request.algorithm = "fair_greedy";
  request.bounds =
      GroupBounds::Proportional(6, grouping->LiveCounts(data), 0.2);
  auto result = session->Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->violations, 0);
}

TEST(SessionUpdateTest, DeletesEmptyingAGroupKeepProportionalFeasible) {
  // The dynamic face of the empty-group bugfix: drain one group entirely
  // mid-session; proportional bounds built from the session's live counts
  // must stay feasible and solvable for a fairness-aware algorithm.
  Instance inst = MakeInstance(/*seed=*/6, /*n=*/120, /*dim=*/3,
                               /*groups=*/3);
  auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());

  std::vector<int> group1;
  for (size_t i = 0; i < inst.grouping.group_of.size(); ++i) {
    if (inst.grouping.group_of[i] == 1) group1.push_back(static_cast<int>(i));
  }
  ASSERT_TRUE(session->Erase(group1).ok());
  ASSERT_EQ(inst.grouping.LiveCounts(inst.data)[1], 0);

  SolverRequest request;
  request.algorithm = "fair_greedy";
  request.bounds = GroupBounds::Proportional(
      8, inst.grouping.LiveCounts(inst.data), 0.1);
  EXPECT_EQ(request.bounds.lower[1], 0);
  EXPECT_EQ(request.bounds.upper[1], 0);
  auto result = session->Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->group_counts[1], 0);
  EXPECT_EQ(result->violations, 0);

  // Stale bounds from before the deletes now name the starving group.
  SolverRequest stale = request;
  stale.bounds = GroupBounds::Explicit(8, {1, 1, 1}, {4, 4, 4}).value();
  const Status st = session->Solve(stale).status();
  EXPECT_EQ(st.code(), StatusCode::kInfeasible);
  EXPECT_NE(st.message().find("group 1"), std::string::npos)
      << st.ToString();
}

TEST(SessionUpdateTest, EverythingErasedIsACleanError) {
  Instance inst = MakeInstance(/*seed=*/7, /*n=*/12, /*dim=*/2,
                               /*groups=*/1);
  auto session = SolverSession::CreateDynamic(&inst.data, &inst.grouping);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Erase(inst.data.LiveRows()).ok());
  SolverRequest request;
  request.algorithm = "bigreedy";
  request.bounds = GroupBounds::Proportional(
      2, inst.grouping.LiveCounts(inst.data), 0.1);
  EXPECT_EQ(session->Solve(request).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairhms
