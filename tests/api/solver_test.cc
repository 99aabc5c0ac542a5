// Solver::Solve facade: every registered algorithm solves a small synthetic
// instance end to end, request validation rejects malformed shapes and
// parameters with uniform InvalidArgument messages, and the exact-2D
// projection fallback happens inside the facade.

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/bigreedy.h"
#include "algo/fair_greedy.h"
#include "algo/group_adapter.h"
#include "algo/intcov.h"
#include "api/session.h"
#include "api/solver.h"
#include "core/artifact_cache.h"
#include "core/evaluate.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

/// A small 2D instance every algorithm can handle: 2 equal groups, k = 6,
/// per-group quotas >= d so g_sphere is feasible.
struct Instance {
  Dataset data{1};
  Grouping grouping;
  GroupBounds bounds;
};

Instance MakeInstance(int dim = 2, int k = 6, uint64_t seed = 7) {
  Instance inst;
  Rng rng(seed);
  inst.data = GenIndependent(200, dim, &rng).NormalizedMinMax();
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

TEST(SolverTest, EveryRegisteredAlgorithmSolves) {
  const Instance inst = MakeInstance();
  for (const AlgorithmInfo* info : AlgorithmRegistry::Instance().All()) {
    const SolverRequest req = MakeRequest(inst, info->name);
    auto result = Solver::Solve(req);
    ASSERT_TRUE(result.ok())
        << info->name << ": " << result.status().ToString();
    EXPECT_EQ(result->algorithm, info->name);
    EXPECT_FALSE(result->solution.rows.empty()) << info->name;
    EXPECT_LE(result->solution.rows.size(),
              static_cast<size_t>(inst.bounds.k))
        << info->name;
    ASSERT_EQ(result->group_counts.size(),
              static_cast<size_t>(inst.grouping.num_groups))
        << info->name;
    EXPECT_EQ(result->solution.algorithm, info->display_name) << info->name;
    EXPECT_GE(result->solve_ms, 0.0) << info->name;
    EXPECT_GE(result->total_ms, result->solve_ms) << info->name;
    if (info->caps.fairness_aware) {
      EXPECT_EQ(result->violations, 0) << info->name;
      EXPECT_EQ(result->solution.rows.size(),
                static_cast<size_t>(inst.bounds.k))
          << info->name;
    } else {
      EXPECT_NE(result->note.find("fairness-unaware"), std::string::npos)
          << info->name;
    }
    // Every selected row must be a valid dataset index.
    for (int r : result->solution.rows) {
      EXPECT_GE(r, 0) << info->name;
      EXPECT_LT(r, static_cast<int>(inst.data.size())) << info->name;
    }
  }
}

TEST(SolverTest, UnknownAlgorithmListsRegistry) {
  const Instance inst = MakeInstance();
  auto result = Solver::Solve(MakeRequest(inst, "no_such_algo"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("unknown algorithm 'no_such_algo'"),
            std::string::npos)
      << result.status().message();
  // The error enumerates the valid names, straight from the registry.
  EXPECT_NE(result.status().message().find("bigreedy"), std::string::npos);
  EXPECT_NE(result.status().message().find("intcov"), std::string::npos);
}

TEST(SolverTest, EmptyAlgorithmIsAnError) {
  const Instance inst = MakeInstance();
  auto result = Solver::Solve(MakeRequest(inst, ""));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("no algorithm requested"),
            std::string::npos)
      << result.status().message();
}

TEST(SolverTest, RequestShapeValidation) {
  const Instance inst = MakeInstance();

  SolverRequest no_data = MakeRequest(inst, "bigreedy");
  no_data.data = nullptr;
  EXPECT_EQ(Solver::Validate(no_data).code(), StatusCode::kInvalidArgument);

  SolverRequest no_grouping = MakeRequest(inst, "bigreedy");
  no_grouping.grouping = nullptr;
  EXPECT_EQ(Solver::Validate(no_grouping).code(),
            StatusCode::kInvalidArgument);

  SolverRequest bad_k = MakeRequest(inst, "bigreedy");
  bad_k.bounds.k = 0;
  const Status k_st = Solver::Validate(bad_k);
  EXPECT_EQ(k_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(k_st.message().find("k must be >= 1"), std::string::npos)
      << k_st.message();
  bad_k.bounds.k = -3;
  EXPECT_EQ(Solver::Validate(bad_k).code(), StatusCode::kInvalidArgument);

  SolverRequest bad_threads = MakeRequest(inst, "bigreedy");
  bad_threads.threads = -1;
  EXPECT_EQ(Solver::Validate(bad_threads).code(),
            StatusCode::kInvalidArgument);
  bad_threads.threads = 5000;
  EXPECT_EQ(Solver::Validate(bad_threads).code(),
            StatusCode::kInvalidArgument);

  // Grouping / bounds shape mismatches.
  SolverRequest mismatched = MakeRequest(inst, "bigreedy");
  Grouping wrong = inst.grouping;
  wrong.group_of.pop_back();
  mismatched.grouping = &wrong;
  EXPECT_EQ(Solver::Validate(mismatched).code(),
            StatusCode::kInvalidArgument);

  SolverRequest wrong_groups = MakeRequest(inst, "bigreedy");
  wrong_groups.bounds.lower.push_back(0);
  wrong_groups.bounds.upper.push_back(1);
  EXPECT_EQ(Solver::Validate(wrong_groups).code(),
            StatusCode::kInvalidArgument);

  // A well-formed request validates without running anything.
  EXPECT_TRUE(Solver::Validate(MakeRequest(inst, "bigreedy")).ok());
}

TEST(SolverTest, ParamValidationIsUniform) {
  const Instance inst = MakeInstance();

  SolverRequest bad_eps = MakeRequest(inst, "bigreedy");
  bad_eps.params.SetDouble("eps", 0.0);
  const Status eps_st = Solver::Validate(bad_eps);
  EXPECT_EQ(eps_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(eps_st.message().find("out of range"), std::string::npos)
      << eps_st.message();

  SolverRequest bad_net = MakeRequest(inst, "sphere");
  bad_net.params.SetInt("net_size", 0);
  EXPECT_EQ(Solver::Validate(bad_net).code(), StatusCode::kInvalidArgument);

  // Net sizes above UtilityNet::kMaxSize would only fail to allocate.
  SolverRequest huge_net = MakeRequest(inst, "bigreedy");
  huge_net.params.SetInt("net_size", 100000000000);
  const Status huge_st = Solver::Validate(huge_net);
  EXPECT_EQ(huge_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_st.message().find("out of range"), std::string::npos)
      << huge_st.message();
  SolverRequest huge_sphere = MakeRequest(inst, "sphere");
  huge_sphere.params.SetInt("net_size", 100000000000);
  const Status huge_sphere_st = Solver::Validate(huge_sphere);
  EXPECT_EQ(huge_sphere_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_sphere_st.message().find("'net_size'"), std::string::npos)
      << huge_sphere_st.message();
  SolverRequest huge_hs = MakeRequest(inst, "hs");
  huge_hs.params.SetInt("net_size", 100000000000);
  const Status huge_hs_st = Solver::Validate(huge_hs);
  EXPECT_EQ(huge_hs_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_hs_st.message().find("'net_size'"), std::string::npos)
      << huge_hs_st.message();
  // max_rounds is an int: larger values would be narrowed, not honored.
  SolverRequest huge_rounds = MakeRequest(inst, "g_hs");
  huge_rounds.params.SetInt("max_rounds", 100000000000);
  const Status huge_rounds_st = Solver::Validate(huge_rounds);
  EXPECT_EQ(huge_rounds_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_rounds_st.message().find("'max_rounds'"), std::string::npos)
      << huge_rounds_st.message();
  SolverRequest max_rounds = MakeRequest(inst, "g_hs");
  max_rounds.params.SetInt("max_rounds", std::numeric_limits<int>::max());
  EXPECT_TRUE(Solver::Validate(max_rounds).ok());
  SolverRequest huge_max = MakeRequest(inst, "bigreedy+");
  huge_max.params.SetInt("max_net_size", 100000000000);
  const Status huge_max_st = Solver::Validate(huge_max);
  EXPECT_EQ(huge_max_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_max_st.message().find("out of range"), std::string::npos)
      << huge_max_st.message();

  SolverRequest bad_lambda = MakeRequest(inst, "bigreedy+");
  bad_lambda.params.SetDouble("lambda", -0.1);
  EXPECT_EQ(Solver::Validate(bad_lambda).code(),
            StatusCode::kInvalidArgument);

  // lambda belongs to bigreedy+ only; plain bigreedy rejects it by name.
  SolverRequest foreign = MakeRequest(inst, "bigreedy");
  foreign.params.SetDouble("lambda", 0.04);
  const Status foreign_st = Solver::Validate(foreign);
  EXPECT_EQ(foreign_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(foreign_st.message().find("unknown parameter 'lambda'"),
            std::string::npos)
      << foreign_st.message();

  SolverRequest bad_type = MakeRequest(inst, "bigreedy");
  bad_type.params.SetString("eps", "small");
  EXPECT_EQ(Solver::Validate(bad_type).code(), StatusCode::kInvalidArgument);

  SolverRequest bad_choice = MakeRequest(inst, "bigreedy");
  bad_choice.params.SetString("tau_search", "zigzag");
  EXPECT_EQ(Solver::Validate(bad_choice).code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverTest, IntCovRefusesTheRetiredPairCap) {
  // IntCov no longer caps its candidate list, so a request that still sets
  // the old cap is refused by name, with the parameters that remain.
  const Instance inst = MakeInstance();
  SolverRequest req = MakeRequest(inst, "intcov");
  req.params.SetInt("max_pair_candidates", 20000000);
  const Status st = Solver::Solve(req).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown parameter 'max_pair_candidates'"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("(valid: max_states, tolerance)"),
            std::string::npos)
      << st.message();
}

TEST(SolverTest, ValidParamsReachTheAlgorithm) {
  const Instance inst = MakeInstance();
  SolverRequest req = MakeRequest(inst, "bigreedy");
  req.params.SetInt("net_size", 64);
  req.params.SetDouble("eps", 0.05);
  req.params.SetString("tau_search", "linear");
  req.params.SetBool("lazy", false);
  auto result = Solver::Solve(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->violations, 0);
}

TEST(SolverTest, ExactTwoDProjectionFallback) {
  const Instance inst4d = MakeInstance(/*dim=*/4, /*k=*/6, /*seed=*/21);
  auto projected = Solver::Solve(MakeRequest(inst4d, "intcov"));
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_NE(projected->note.find("projection"), std::string::npos)
      << projected->note;
  EXPECT_EQ(projected->violations, 0);

  // On native 2D data there is no caveat.
  const Instance inst2d = MakeInstance(/*dim=*/2, /*k=*/6, /*seed=*/21);
  auto native = Solver::Solve(MakeRequest(inst2d, "intcov"));
  ASSERT_TRUE(native.ok());
  EXPECT_TRUE(native->note.empty()) << native->note;
}

TEST(SolverTest, OneDimensionalDataRejectedForExact2D) {
  const Instance inst1d = MakeInstance(/*dim=*/1, /*k=*/6, /*seed=*/3);
  // Caught at validation time, not only at solve time — admission-control
  // callers of Validate() see everything Solve would reject.
  EXPECT_EQ(Solver::Validate(MakeRequest(inst1d, "intcov")).code(),
            StatusCode::kInvalidArgument);
  auto result = Solver::Solve(MakeRequest(inst1d, "intcov"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverTest, InfeasibleBoundsRejectedBeforeSolving) {
  Instance inst = MakeInstance();
  // Lower bounds exceeding k are infeasible for every algorithm.
  inst.bounds.lower = {5, 5};
  inst.bounds.upper = {6, 6};
  auto result = Solver::Solve(MakeRequest(inst, "bigreedy"));
  ASSERT_FALSE(result.ok());
}

TEST(SolverTest, FacadeMatchesDirectCall) {
  // The facade adds no solver logic of its own: every algorithm bench_paper
  // runs, solved through a session whose cache already holds the stored
  // skyline and fair pool, with the bench's seed (the entry point's Options
  // default), selects the same rows with the same mhr as the entry point
  // called directly with default Options.
  using Direct = std::function<StatusOr<Solution>(
      const Instance&, const std::vector<int>& skyline)>;
  const auto plain = [](BaseSolver rows) -> Direct {
    return [rows](const Instance& in,
                  const std::vector<int>& skyline) -> StatusOr<Solution> {
      Solution out;
      FAIRHMS_ASSIGN_OR_RETURN(out.rows, rows(in.data, skyline, in.bounds.k));
      out.mhr = EvaluateMhr(in.data, skyline, out.rows);
      return out;
    };
  };
  const auto adapted = [](BaseSolver rows, const char* name) -> Direct {
    return [rows, name](const Instance& in, const std::vector<int>&) {
      return GroupAdapt(rows, name, in.data, in.grouping, in.bounds);
    };
  };
  const BaseSolver greedy = [](const Dataset& d, const std::vector<int>& rows,
                               int k) { return RdpGreedyRows(d, rows, k); };
  const BaseSolver dmm = [](const Dataset& d, const std::vector<int>& rows,
                            int k) { return DmmRows(d, rows, k); };
  const BaseSolver hs = [](const Dataset& d, const std::vector<int>& rows,
                           int k) { return HittingSetRows(d, rows, k); };
  const BaseSolver sphere = [](const Dataset& d, const std::vector<int>& rows,
                               int k) { return SphereRows(d, rows, k); };
  struct Case {
    const char* algorithm;
    uint64_t seed;
    int dim;
    Direct direct;
  };
  const Case cases[] = {
      {"intcov", 42, 2,
       [](const Instance& in, const std::vector<int>&) {
         return IntCov(in.data, in.grouping, in.bounds);
       }},
      {"bigreedy", 13, 3,
       [](const Instance& in, const std::vector<int>&) {
         return BiGreedy(in.data, in.grouping, in.bounds);
       }},
      {"bigreedy+", 13, 3,
       [](const Instance& in, const std::vector<int>&) {
         return BiGreedyPlus(in.data, in.grouping, in.bounds);
       }},
      {"fair_greedy", 42, 3,
       [](const Instance& in, const std::vector<int>&) {
         return FairGreedy(in.data, in.grouping, in.bounds);
       }},
      {"g_greedy", 42, 3, adapted(greedy, "Greedy")},
      {"g_dmm", 42, 3, adapted(dmm, "DMM")},
      {"g_hs", 31, 3, adapted(hs, "HS")},
      {"g_sphere", 29, 3, adapted(sphere, "Sphere")},
      {"rdp_greedy", 42, 3, plain(greedy)},
      {"dmm", 42, 3, plain(dmm)},
      {"hs", 31, 3, plain(hs)},
      {"sphere", 29, 3, plain(sphere)},
  };
  const Instance plane = MakeInstance();
  const Instance space = MakeInstance(/*dim=*/3, /*k=*/8, /*seed=*/33);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.algorithm);
    const Instance& inst = c.dim == 2 ? plane : space;
    const std::vector<int> skyline = ComputeSkyline(inst.data);
    SolverSession session =
        SolverSession::Create(&inst.data, &inst.grouping).value();
    using Kind = ArtifactCache::Kind;
    session.cache()->Put(ArtifactCache::VersionedKey(Kind::kSkyline, inst.data),
                         skyline);
    session.cache()->Put(
        ArtifactCache::VersionedKey(Kind::kFairPool, inst.data,
                                    &inst.grouping),
        ComputeFairCandidatePool(inst.data, inst.grouping));
    SolverRequest req = MakeRequest(inst, c.algorithm);
    req.seed = c.seed;
    auto via_session = session.Solve(req);
    ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();

    auto direct = c.direct(inst, skyline);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(via_session->solution.rows, direct->rows);
    EXPECT_EQ(via_session->solution.mhr, direct->mhr);
  }
}

}  // namespace
}  // namespace fairhms
