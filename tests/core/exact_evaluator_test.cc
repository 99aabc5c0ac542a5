#include "core/exact_evaluator.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "geom/dominance.h"
#include "lp/simplex.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::GridMhr2D;
using testing::MakeDataset;

TEST(Exact2DTest, FullSetIsOne) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.6, 0.6}});
  EXPECT_NEAR(MhrExact2D(data, {0, 1, 2}, {0, 1, 2}), 1.0, 1e-12);
}

TEST(Exact2DTest, MatchesDenseGridOnRandomData) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const Dataset data = GenIndependent(60, 2, &rng);
    std::vector<int> all(60);
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> subset;
    for (int i = 0; i < 60; ++i) {
      if (rng.Bernoulli(0.15)) subset.push_back(i);
    }
    if (subset.empty()) subset.push_back(0);
    const double exact = MhrExact2D(data, all, subset);
    const double grid = GridMhr2D(data, subset, 5000);
    EXPECT_LE(exact, grid + 1e-9);
    EXPECT_NEAR(exact, grid, 2e-4) << "trial " << trial;
  }
}

TEST(ExactLpTest, AgreesWithGeometric2D) {
  // Cross-engine check: the LP evaluator and the envelope evaluator must
  // produce the same mhr on 2D data.
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const Dataset data = GenIndependent(40, 2, &rng);
    const auto sky = ComputeSkyline(data);
    std::vector<int> subset;
    for (int i = 0; i < 40; i += 7) subset.push_back(i);
    const double geo = MhrExact2D(data, sky, subset);
    const double lp = MhrExactLp(data, sky, subset);
    EXPECT_NEAR(geo, lp, 1e-7) << "trial " << trial;
  }
}

TEST(ExactLpTest, NetMhrUpperBoundsExactMhr) {
  // Lemma 4.1: mhr(S) <= mhr(S|N) <= mhr(S) + error.
  Rng rng(41);
  const Dataset data = GenIndependent(80, 4, &rng);
  const auto sky = ComputeSkyline(data);
  const UtilityNet net = UtilityNet::SampleRandom(4, 3000, &rng);
  const NetEvaluator eval(&data, &net, sky);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int> subset;
    for (int i = 0; i < 80; ++i) {
      if (rng.Bernoulli(0.1)) subset.push_back(i);
    }
    if (subset.empty()) subset.push_back(trial);
    const double exact = MhrExactLp(data, sky, subset);
    const double net_mhr = eval.Mhr(subset);
    EXPECT_GE(net_mhr, exact - 1e-7);
    EXPECT_LE(net_mhr, exact + 0.1);  // 3000 samples in 4D: loose but sane.
  }
}

TEST(ExactLpTest, EmptySolutionIsZero) {
  const Dataset data = MakeDataset({{1, 1}});
  EXPECT_DOUBLE_EQ(MhrExactLp(data, {0}, {}), 0.0);
}

TEST(ExactLpTest, SolutionEqualsDatabaseIsOne) {
  Rng rng(43);
  const Dataset data = GenIndependent(20, 3, &rng);
  const auto sky = ComputeSkyline(data);
  EXPECT_NEAR(MhrExactLp(data, sky, sky), 1.0, 1e-9);
}

TEST(MaxRegretWitnessTest, EmptySolutionFullRegret) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const RegretWitness w = MaxRegretWitnessLp(data, {0, 1}, {});
  EXPECT_EQ(w.regret, 1.0);
  EXPECT_GE(w.row, 0);
}

TEST(MaxRegretWitnessTest, WitnessOutsideSolution) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.9, 0.9}});
  const RegretWitness w = MaxRegretWitnessLp(data, {0, 1, 2}, {2});
  // (0.9,0.9) covers well, but the axes still cause some regret; the witness
  // must be point 0 or 1 and regret = 0.1 (at the axis directions).
  EXPECT_TRUE(w.row == 0 || w.row == 1);
  EXPECT_NEAR(w.regret, 0.1, 1e-7);
}

TEST(MaxRegretWitnessTest, DominatedWitnessSkipped) {
  const Dataset data = MakeDataset({{1, 1}, {0.5, 0.5}});
  const RegretWitness w = MaxRegretWitnessLp(data, {0, 1}, {0});
  // Everything is weakly dominated by the selected (1,1): zero regret.
  EXPECT_DOUBLE_EQ(w.regret, 0.0);
}

TEST(MaxRegretWitnessTest, UtilityVectorAttainsRegret) {
  Rng rng(47);
  const Dataset data = GenIndependent(30, 3, &rng);
  const auto sky = ComputeSkyline(data);
  const std::vector<int> solution = {0, 1, 2};
  const RegretWitness w = MaxRegretWitnessLp(data, sky, solution);
  if (w.row >= 0 && w.regret > 0) {
    ASSERT_EQ(w.utility.size(), 3u);
    // Verify the certificate: hr at u equals 1 - regret w.r.t. witness.
    double uw = 0, best_s = 0;
    for (int j = 0; j < 3; ++j) {
      uw += w.utility[static_cast<size_t>(j)] * data.at(static_cast<size_t>(w.row), j);
    }
    for (int s : solution) {
      double us = 0;
      for (int j = 0; j < 3; ++j) {
        us += w.utility[static_cast<size_t>(j)] * data.at(static_cast<size_t>(s), j);
      }
      best_s = std::max(best_s, us);
    }
    EXPECT_NEAR(uw, 1.0, 1e-7);            // Normalized witness score.
    EXPECT_LE(best_s, 1.0 - w.regret + 1e-7);
  }
}

TEST(AllWitnessRegretsTest, AlignsWithMaxWitness) {
  Rng rng(53);
  const Dataset data = GenIndependent(25, 3, &rng);
  const auto sky = ComputeSkyline(data);
  const std::vector<int> solution = {sky[0]};
  const auto regrets = AllWitnessRegretsLp(data, sky, solution);
  ASSERT_EQ(regrets.size(), sky.size());
  const double max_all = *std::max_element(regrets.begin(), regrets.end());
  const RegretWitness w = MaxRegretWitnessLp(data, sky, solution);
  EXPECT_NEAR(max_all, w.regret, 1e-9);
}

TEST(AllWitnessRegretsTest, MembersOfSolutionHaveZero) {
  Rng rng(59);
  const Dataset data = GenIndependent(15, 2, &rng);
  const auto sky = ComputeSkyline(data);
  const std::vector<int> solution = {sky[0], sky.back()};
  const auto regrets = AllWitnessRegretsLp(data, sky, solution);
  for (size_t i = 0; i < sky.size(); ++i) {
    if (sky[i] == solution[0] || sky[i] == solution[1]) {
      EXPECT_DOUBLE_EQ(regrets[i], 0.0);
    }
  }
}

TEST(AllWitnessRegretsTest, EmptySolutionAllOnes) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}});
  const auto regrets = AllWitnessRegretsLp(data, {0, 1}, {});
  EXPECT_EQ(regrets, (std::vector<double>{1.0, 1.0}));
}


uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// The witness LP of `w` against S built the way every witness was built
/// before lanes reused one problem: a fresh LpProblem through the vector
/// API. Non-optimal when w is weakly dominated by S or non-positive.
LpResult FreshWitnessLp(const Dataset& data, int w,
                        const std::vector<int>& solution) {
  const int d = data.dim();
  const double* pw = data.point(static_cast<size_t>(w));
  LpResult skipped;
  skipped.status = LpStatus::kInfeasible;
  for (int s : solution) {
    if (WeaklyDominates(data.point(static_cast<size_t>(s)), pw,
                        static_cast<size_t>(d))) {
      return skipped;
    }
  }
  double sum = 0.0;
  for (int j = 0; j < d; ++j) sum += pw[j];
  if (sum <= 0.0) return skipped;
  LpProblem lp(d + 1);
  std::vector<double> obj(static_cast<size_t>(d + 1), 0.0);
  obj[static_cast<size_t>(d)] = 1.0;
  lp.SetObjective(obj);
  std::vector<double> row(pw, pw + d);
  row.push_back(0.0);
  lp.AddConstraint(row, RelOp::kEq, 1.0);
  for (int s : solution) {
    const double* ps = data.point(static_cast<size_t>(s));
    row.assign(ps, ps + d);
    row.push_back(1.0);
    lp.AddConstraint(row, RelOp::kLe, 1.0);
  }
  return lp.Solve();
}

/// Data with duplicated rows: `base` plus a copy of every third row.
Dataset WithDuplicates(const Dataset& base) {
  Dataset data(base.dim());
  for (size_t i = 0; i < base.size(); ++i) {
    data.AddPoint(std::vector<double>(base.point(i),
                                      base.point(i) + base.dim()));
  }
  for (size_t i = 0; i < base.size(); i += 3) {
    data.AddPoint(std::vector<double>(base.point(i),
                                      base.point(i) + base.dim()));
  }
  return data;
}

// The witness sweeps, whose lanes Reset one LpProblem per witness, equal bit
// for bit a fresh problem per witness: the regrets, the winning row and the
// utility of its re-solve, at 1 and 4 threads.
TEST(WitnessLaneTest, SweepsMatchFreshProblemPerWitness) {
  Rng rng(61);
  int compared = 0;
  for (int anticorrelated = 0; anticorrelated < 2; ++anticorrelated) {
    for (int d : {2, 3, 6}) {
      const Dataset base = anticorrelated ? GenAntiCorrelated(90, d, &rng)
                                          : GenIndependent(90, d, &rng);
      const Dataset data = WithDuplicates(base);
      // Witnesses: the skyline, duplicated rows and dominated rows.
      std::vector<int> witnesses = ComputeSkyline(data);
      for (int i = 0; i < static_cast<int>(data.size()); i += 4) {
        witnesses.push_back(i);
      }
      for (size_t s_size : {1u, 5u, 20u}) {
        std::vector<int> solution;
        for (size_t i = 0; i < s_size; ++i) {
          solution.push_back(witnesses[(i * 7) % witnesses.size()]);
        }
        std::vector<double> want_regrets(witnesses.size(), 0.0);
        int want_row = -1;
        double want_regret = 0.0;
        std::vector<double> want_utility;
        for (size_t i = 0; i < witnesses.size(); ++i) {
          const LpResult res = FreshWitnessLp(data, witnesses[i], solution);
          if (res.status != LpStatus::kOptimal) continue;
          want_regrets[i] = std::clamp(res.objective, 0.0, 1.0);
          if (res.objective > want_regret) {
            want_regret = res.objective;
            want_row = witnesses[i];
            want_utility.assign(res.x.begin(), res.x.begin() + d);
          }
        }
        want_regret = std::clamp(want_regret, 0.0, 1.0);
        for (int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message()
                       << "anticorrelated " << anticorrelated << " d " << d
                       << " |S| " << s_size << " threads " << threads);
          const std::vector<double> regrets =
              AllWitnessRegretsLp(data, witnesses, solution, threads);
          ASSERT_EQ(regrets.size(), want_regrets.size());
          for (size_t i = 0; i < regrets.size(); ++i) {
            ASSERT_EQ(Bits(regrets[i]), Bits(want_regrets[i])) << "i " << i;
          }
          const RegretWitness w =
              MaxRegretWitnessLp(data, witnesses, solution, threads);
          ASSERT_EQ(w.row, want_row);
          ASSERT_EQ(Bits(w.regret), Bits(want_regret));
          ASSERT_EQ(w.utility.size(), want_utility.size());
          for (size_t j = 0; j < want_utility.size(); ++j) {
            ASSERT_EQ(Bits(w.utility[j]), Bits(want_utility[j])) << "u" << j;
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 36);
}

}  // namespace
}  // namespace fairhms
