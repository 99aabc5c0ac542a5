#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairhms {
namespace {

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6;  optimum at (4, 0) = 12.
  LpProblem lp(2);
  lp.SetObjective({3, 2});
  lp.AddConstraint({1, 1}, RelOp::kLe, 4);
  lp.AddConstraint({1, 3}, RelOp::kLe, 6);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 12.0, 1e-9);
  EXPECT_NEAR(res.x[0], 4.0, 1e-9);
  EXPECT_NEAR(res.x[1], 0.0, 1e-9);
}

TEST(SimplexTest, InteriorOptimum) {
  // max x + y  s.t. 2x + y <= 4, x + 2y <= 4; optimum (4/3, 4/3) = 8/3.
  LpProblem lp(2);
  lp.SetObjective({1, 1});
  lp.AddConstraint({2, 1}, RelOp::kLe, 4);
  lp.AddConstraint({1, 2}, RelOp::kLe, 4);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(res.x[0], 4.0 / 3.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x  s.t. x + y = 1; optimum x = 1.
  LpProblem lp(2);
  lp.SetObjective({1, 0});
  lp.AddConstraint({1, 1}, RelOp::kEq, 1);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-9);
  EXPECT_NEAR(res.x[1], 0.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraint) {
  // min x + y (max -x - y) s.t. x + y >= 2 -> optimum -2.
  LpProblem lp(2);
  lp.SetObjective({-1, -1});
  lp.AddConstraint({1, 1}, RelOp::kGe, 2);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  LpProblem lp(1);
  lp.SetObjective({1});
  lp.AddConstraint({1}, RelOp::kLe, 1);
  lp.AddConstraint({1}, RelOp::kGe, 2);
  EXPECT_EQ(lp.Solve().status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualities) {
  LpProblem lp(2);
  lp.SetObjective({1, 0});
  lp.AddConstraint({1, 1}, RelOp::kEq, 1);
  lp.AddConstraint({1, 1}, RelOp::kEq, 2);
  EXPECT_EQ(lp.Solve().status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  LpProblem lp(2);
  lp.SetObjective({1, 0});
  lp.AddConstraint({0, 1}, RelOp::kLe, 1);  // x unconstrained above.
  EXPECT_EQ(lp.Solve().status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // max -x s.t. -x <= -2 (i.e. x >= 2): optimum x = 2, objective -2.
  LpProblem lp(1);
  lp.SetObjective({-1});
  lp.AddConstraint({-1}, RelOp::kLe, -2);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);
}

TEST(SimplexTest, RedundantConstraintsHandled) {
  LpProblem lp(2);
  lp.SetObjective({1, 1});
  lp.AddConstraint({1, 0}, RelOp::kLe, 1);
  lp.AddConstraint({1, 0}, RelOp::kLe, 1);  // Duplicate.
  lp.AddConstraint({2, 0}, RelOp::kLe, 2);  // Scaled duplicate.
  lp.AddConstraint({0, 1}, RelOp::kLe, 1);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 2.0, 1e-9);
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Klee-Minty-ish degenerate instance; must terminate and be optimal.
  LpProblem lp(3);
  lp.SetObjective({10, 1, 0});
  lp.AddConstraint({1, 0, 0}, RelOp::kLe, 1);
  lp.AddConstraint({20, 1, 0}, RelOp::kLe, 100);
  lp.AddConstraint({200, 20, 1}, RelOp::kLe, 10000);
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_GT(res.objective, 0.0);
}

TEST(SimplexTest, WitnessLpShape) {
  // The exact shape used by the evaluator: max x s.t. <u,w> = 1,
  // <u,s> + x <= 1, u,x >= 0. w = (1, 0), s = (0.8, 0.6).
  LpProblem lp(3);  // u0, u1, x.
  lp.SetObjective({0, 0, 1});
  lp.AddConstraint({1.0, 0.0, 0}, RelOp::kEq, 1);    // u.w = 1.
  lp.AddConstraint({0.8, 0.6, 1}, RelOp::kLe, 1);    // u.s + x <= 1.
  const LpResult res = lp.Solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  // Best: u = (1, 0) -> x = 1 - 0.8 = 0.2.
  EXPECT_NEAR(res.objective, 0.2, 1e-9);
}

// Property test: on random feasible-by-construction LPs the simplex solution
// must (a) be feasible and (b) weakly beat a cloud of random feasible points.
TEST(SimplexTest, RandomLpsFeasibleAndNoWorseThanSampledPoints) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(3));  // 2..4 vars.
    const int m = 2 + static_cast<int>(rng.UniformInt(4));  // 2..5 rows.
    LpProblem lp(n);
    std::vector<double> c(static_cast<size_t>(n));
    for (auto& v : c) v = rng.Uniform(-1, 1);
    lp.SetObjective(c);
    std::vector<std::vector<double>> rows;
    std::vector<double> rhs;
    for (int i = 0; i < m; ++i) {
      std::vector<double> a(static_cast<size_t>(n));
      for (auto& v : a) v = rng.Uniform(0, 1);  // Nonneg rows keep it bounded.
      const double b = rng.Uniform(0.5, 2.0);
      lp.AddConstraint(a, RelOp::kLe, b);
      rows.push_back(a);
      rhs.push_back(b);
    }
    const LpResult res = lp.Solve();
    ASSERT_EQ(res.status, LpStatus::kOptimal) << "trial " << trial;
    // Feasibility.
    for (int i = 0; i < m; ++i) {
      double lhs = 0;
      for (int j = 0; j < n; ++j) lhs += rows[static_cast<size_t>(i)][static_cast<size_t>(j)] * res.x[static_cast<size_t>(j)];
      EXPECT_LE(lhs, rhs[static_cast<size_t>(i)] + 1e-7);
    }
    for (double v : res.x) EXPECT_GE(v, -1e-9);
    // Optimality vs sampled feasible points.
    for (int probe = 0; probe < 200; ++probe) {
      std::vector<double> x(static_cast<size_t>(n));
      for (auto& v : x) v = rng.Uniform(0, 2);
      bool feasible = true;
      for (int i = 0; i < m && feasible; ++i) {
        double lhs = 0;
        for (int j = 0; j < n; ++j) lhs += rows[static_cast<size_t>(i)][static_cast<size_t>(j)] * x[static_cast<size_t>(j)];
        feasible = lhs <= rhs[static_cast<size_t>(i)];
      }
      if (!feasible) continue;
      double obj = 0;
      for (int j = 0; j < n; ++j) obj += c[static_cast<size_t>(j)] * x[static_cast<size_t>(j)];
      EXPECT_LE(obj, res.objective + 1e-6);
    }
  }
}

TEST(SimplexTest, StatusToString) {
  EXPECT_STREQ(LpStatusToString(LpStatus::kOptimal), "Optimal");
  EXPECT_STREQ(LpStatusToString(LpStatus::kInfeasible), "Infeasible");
  EXPECT_STREQ(LpStatusToString(LpStatus::kUnbounded), "Unbounded");
  EXPECT_STREQ(LpStatusToString(LpStatus::kIterationLimit), "IterationLimit");
}


uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// One LP of a reuse sequence, kept in plain vectors.
struct LpSpec {
  int n = 1;
  std::vector<double> c;
  std::vector<std::vector<double>> rows;
  std::vector<RelOp> ops;
  std::vector<double> rhs;
};

/// Random LPs on a 0.1 grid (so ties and degenerate vertices are common):
/// 1..6 variables, 0..7 rows of every relation, rhs of both signs (a
/// negative rhs flips its row), zero coefficients included.
LpSpec RandomSpec(Rng* rng) {
  auto grid = [&](double lo, double hi) {
    return std::round(rng->Uniform(lo, hi) * 10) / 10;
  };
  LpSpec spec;
  spec.n = 1 + static_cast<int>(rng->UniformInt(6));
  const int m = static_cast<int>(rng->UniformInt(8));
  for (int j = 0; j < spec.n; ++j) {
    spec.c.push_back(rng->Bernoulli(0.2) ? 0.0 : grid(-2, 2));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<double> a;
    for (int j = 0; j < spec.n; ++j) {
      a.push_back(rng->Bernoulli(0.3) ? 0.0 : grid(-1, 2));
    }
    spec.rows.push_back(a);
    const int op = static_cast<int>(rng->UniformInt(3));
    spec.ops.push_back(op == 0 ? RelOp::kLe : op == 1 ? RelOp::kGe
                                                      : RelOp::kEq);
    spec.rhs.push_back(grid(-2, 3));
  }
  return spec;
}

/// Loads `spec` into `lp` (already sized for spec.n), alternating the
/// vector and the pointer constraint APIs.
void Load(const LpSpec& spec, LpProblem* lp) {
  lp->SetObjective(spec.c);
  for (size_t i = 0; i < spec.rows.size(); ++i) {
    if (i % 2 == 0) {
      lp->AddConstraint(spec.rows[i], spec.ops[i], spec.rhs[i]);
    } else {
      lp->AddConstraint(spec.rows[i].data(), spec.ops[i], spec.rhs[i]);
    }
  }
}

// One problem Reset across a sequence of LPs returns, for each, the status,
// objective bits and x bits of a fresh problem. Sizes go up and down so a
// stale row, op, rhs or workspace cell would show.
TEST(SimplexTest, ResetReuseMatchesFreshProblem) {
  Rng rng(77);
  std::vector<LpSpec> specs;
  // Fixed cases first: degenerate (duplicate and scaled rows through one
  // vertex), negative rhs, infeasible, unbounded.
  {
    LpSpec degenerate;
    degenerate.n = 3;
    degenerate.c = {10, 1, 0};
    degenerate.rows = {{1, 0, 0}, {1, 0, 0}, {2, 0, 0}, {20, 1, 0},
                       {200, 20, 1}};
    degenerate.ops = {RelOp::kLe, RelOp::kLe, RelOp::kLe, RelOp::kLe,
                      RelOp::kLe};
    degenerate.rhs = {1, 1, 2, 100, 10000};
    specs.push_back(degenerate);
    LpSpec flipped;
    flipped.n = 1;
    flipped.c = {-1};
    flipped.rows = {{-1}};
    flipped.ops = {RelOp::kLe};
    flipped.rhs = {-2};
    specs.push_back(flipped);
    LpSpec infeasible;
    infeasible.n = 2;
    infeasible.c = {1, 0};
    infeasible.rows = {{1, 1}, {1, 1}};
    infeasible.ops = {RelOp::kEq, RelOp::kEq};
    infeasible.rhs = {1, 2};
    specs.push_back(infeasible);
    LpSpec unbounded;
    unbounded.n = 2;
    unbounded.c = {1, 0};
    unbounded.rows = {{0, 1}};
    unbounded.ops = {RelOp::kLe};
    unbounded.rhs = {1};
    specs.push_back(unbounded);
  }
  for (int i = 0; i < 3000; ++i) specs.push_back(RandomSpec(&rng));

  LpProblem reused(1);
  int seen[4] = {0, 0, 0, 0};
  for (size_t k = 0; k < specs.size(); ++k) {
    const LpSpec& spec = specs[k];
    LpProblem fresh(spec.n);
    Load(spec, &fresh);
    const LpResult want = fresh.Solve();

    reused.Reset(spec.n);
    Load(spec, &reused);
    ASSERT_EQ(reused.num_vars(), spec.n);
    ASSERT_EQ(reused.num_constraints(), static_cast<int>(spec.rows.size()));
    const LpResult got = reused.Solve();
    ASSERT_EQ(want.status, got.status) << "lp " << k;
    ASSERT_EQ(Bits(want.objective), Bits(got.objective)) << "lp " << k;
    ASSERT_EQ(want.x.size(), got.x.size()) << "lp " << k;
    for (size_t j = 0; j < want.x.size(); ++j) {
      ASSERT_EQ(Bits(want.x[j]), Bits(got.x[j])) << "lp " << k << " x" << j;
    }
    // The objective-only solve of the same problem agrees and leaves x empty.
    const LpResult objective_only = reused.Solve(LpOutput::kObjective);
    ASSERT_EQ(want.status, objective_only.status) << "lp " << k;
    ASSERT_EQ(Bits(want.objective), Bits(objective_only.objective))
        << "lp " << k;
    ASSERT_TRUE(objective_only.x.empty()) << "lp " << k;
    ++seen[static_cast<int>(got.status)];
  }
  // The sequence exercises every terminal state but the iteration limit.
  EXPECT_GT(seen[static_cast<int>(LpStatus::kOptimal)], 300);
  EXPECT_GT(seen[static_cast<int>(LpStatus::kInfeasible)], 300);
  EXPECT_GT(seen[static_cast<int>(LpStatus::kUnbounded)], 300);
}

}  // namespace
}  // namespace fairhms
