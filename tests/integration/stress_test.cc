// Randomized stress sweep: hammer every solver with random instances and
// enforce the universal invariants — no crashes, Status-clean failures,
// fairness, solution size, mhr in [0,1], determinism under fixed seeds.

#include <numeric>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/bigreedy.h"
#include "algo/fair_greedy.h"
#include "algo/group_adapter.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

struct Instance {
  Dataset data{1};
  Grouping grouping;
  GroupBounds bounds;
};

Instance RandomInstance(Rng* rng, int max_d) {
  Instance inst;
  const int d = 2 + static_cast<int>(rng->UniformInt(static_cast<uint64_t>(max_d - 1)));
  const size_t n = 30 + rng->UniformInt(170);
  switch (rng->UniformInt(3)) {
    case 0:
      inst.data = GenIndependent(n, d, rng);
      break;
    case 1:
      inst.data = GenAntiCorrelated(n, d, rng);
      break;
    default:
      inst.data = GenCorrelated(n, d, rng);
      break;
  }
  const int c_num = 1 + static_cast<int>(rng->UniformInt(4));
  inst.grouping = GroupBySumRank(inst.data, c_num);
  const int k = std::max<int>(
      c_num, 2 + static_cast<int>(rng->UniformInt(10)));
  inst.bounds = GroupBounds::Proportional(k, inst.grouping.Counts(),
                                          0.05 + 0.4 * rng->Uniform());
  return inst;
}

void CheckSolution(const Instance& inst, const Solution& sol,
                   const char* algo) {
  EXPECT_EQ(static_cast<int>(sol.rows.size()), inst.bounds.k) << algo;
  EXPECT_EQ(CountViolations(sol.rows, inst.grouping, inst.bounds), 0) << algo;
  EXPECT_GE(sol.mhr, 0.0) << algo;
  EXPECT_LE(sol.mhr, 1.0 + 1e-9) << algo;
  // Distinct rows.
  std::vector<int> copy = sol.rows;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(std::adjacent_find(copy.begin(), copy.end()), copy.end()) << algo;
}

TEST(StressTest, FairSolversSurviveRandomInstances) {
  Rng rng(20240601);
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = RandomInstance(&rng, 6);
    if (!inst.bounds.Validate(inst.grouping.Counts()).ok()) continue;

    auto bg = BiGreedy(inst.data, inst.grouping, inst.bounds);
    ASSERT_TRUE(bg.ok()) << "trial " << trial << ": " << bg.status();
    CheckSolution(inst, *bg, "BiGreedy");

    auto fg = FairGreedy(inst.data, inst.grouping, inst.bounds);
    ASSERT_TRUE(fg.ok()) << "trial " << trial << ": " << fg.status();
    CheckSolution(inst, *fg, "F-Greedy");

    if (inst.data.dim() == 2) {
      auto ic = IntCov(inst.data, inst.grouping, inst.bounds);
      ASSERT_TRUE(ic.ok()) << "trial " << trial << ": " << ic.status();
      CheckSolution(inst, *ic, "IntCov");
      // Exactness: IntCov tops both heuristics (all exactly evaluated).
      const auto sky = ComputeSkyline(inst.data);
      EXPECT_GE(ic->mhr + 1e-7, MhrExact2D(inst.data, sky, bg->rows));
      EXPECT_GE(ic->mhr + 1e-7, MhrExact2D(inst.data, sky, fg->rows));
    }
  }
}

TEST(StressTest, GroupAdaptersSurviveOrFailCleanly) {
  Rng rng(77001);
  BaseSolver solvers[] = {
      [](const Dataset& d, const std::vector<int>& rows, int k) {
        return RdpGreedyRows(d, rows, k);
      },
      [](const Dataset& d, const std::vector<int>& rows, int k) {
        return HittingSetRows(d, rows, k);
      },
  };
  const char* names[] = {"Greedy", "HS"};
  for (int trial = 0; trial < 15; ++trial) {
    const Instance inst = RandomInstance(&rng, 5);
    if (!inst.bounds.Validate(inst.grouping.Counts()).ok()) continue;
    for (int s = 0; s < 2; ++s) {
      auto sol = GroupAdapt(solvers[s], names[s], inst.data, inst.grouping,
                            inst.bounds);
      if (!sol.ok()) continue;  // Clean Status failure is acceptable.
      CheckSolution(inst, *sol, names[s]);
    }
  }
}

TEST(StressTest, DeterminismAcrossRepeatedRuns) {
  Rng rng(880088);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = RandomInstance(&rng, 5);
    if (!inst.bounds.Validate(inst.grouping.Counts()).ok()) continue;
    auto a = BiGreedy(inst.data, inst.grouping, inst.bounds);
    auto b = BiGreedy(inst.data, inst.grouping, inst.bounds);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rows, b->rows) << "trial " << trial;
    auto fa = FairGreedy(inst.data, inst.grouping, inst.bounds);
    auto fb = FairGreedy(inst.data, inst.grouping, inst.bounds);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(fa->rows, fb->rows) << "trial " << trial;
  }
}

TEST(StressTest, UnfairBaselinesHandleArbitraryPools) {
  Rng rng(990099);
  for (int trial = 0; trial < 12; ++trial) {
    const int d = 2 + static_cast<int>(rng.UniformInt(5));
    const Dataset data = GenAntiCorrelated(100 + rng.UniformInt(100), d, &rng);
    const auto sky = ComputeSkyline(data);
    const int k = 1 + static_cast<int>(rng.UniformInt(12));
    auto g = RdpGreedyRows(data, sky, k);
    ASSERT_TRUE(g.ok());
    EXPECT_LE(g->size(), static_cast<size_t>(k));
    auto h = HittingSetRows(data, sky, k);
    ASSERT_TRUE(h.ok());
    auto m = DmmRows(data, sky, k);
    if (m.ok()) {
      EXPECT_LE(m->size(), static_cast<size_t>(k));
    } else {
      EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
    }
    if (k >= d) {
      auto s = SphereRows(data, sky, k);
      ASSERT_TRUE(s.ok());
    }
  }
}

}  // namespace
}  // namespace fairhms
