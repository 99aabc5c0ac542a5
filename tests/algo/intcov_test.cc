#include "algo/intcov.h"

#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::ForEachSubset;
using testing::MakeDataset;
using testing::MakeGrouping;

/// Brute-force FairHMS optimum via subset enumeration + exact 2D mhr.
double BruteForceOpt(const Dataset& data, const Grouping& g,
                     const GroupBounds& bounds) {
  std::vector<int> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  const auto sky = ComputeSkyline(data);
  double best = -1.0;
  ForEachSubset(all, bounds.k, [&](const std::vector<int>& subset) {
    if (CountViolations(subset, g, bounds) != 0) return;
    best = std::max(best, MhrExact2D(data, sky, subset));
  });
  return best;
}

TEST(IntCovTest, RejectsNon2D) {
  Rng rng(1);
  const Dataset data = GenIndependent(20, 3, &rng);
  const Grouping g = SingleGroup(20);
  auto bounds = GroupBounds::Explicit(2, {2}, {2});
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(IntCov(data, g, *bounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IntCovTest, TrivialInstanceSelectsHull) {
  // With k = 2 and one group, picking both extremes is optimal.
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.2, 0.2}});
  const Grouping g = SingleGroup(3);
  auto bounds = GroupBounds::Explicit(2, {0}, {2});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows, (std::vector<int>{0, 1}));
  EXPECT_NEAR(sol->mhr, 1.0, 1e-9);
}

TEST(IntCovTest, FairnessConstraintChangesSolution) {
  // Group 0 holds both extremes; forcing one from each group drops mhr.
  // ((0.5, 0.45) lies strictly below the chord between the extremes, so the
  // unconstrained optimum {p0, p1} has mhr exactly 1.)
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.45}, {0.4, 0.4}});
  const Grouping g = MakeGrouping({0, 0, 1, 1}, 2);
  auto unfair = GroupBounds::Explicit(2, {0, 0}, {2, 2});
  auto fair = GroupBounds::Explicit(2, {1, 1}, {1, 1});
  ASSERT_TRUE(unfair.ok() && fair.ok());
  auto su = IntCov(data, g, *unfair);
  auto sf = IntCov(data, g, *fair);
  ASSERT_TRUE(su.ok() && sf.ok());
  EXPECT_NEAR(su->mhr, 1.0, 1e-9);
  EXPECT_LT(sf->mhr, su->mhr);
  EXPECT_EQ(CountViolations(sf->rows, g, *fair), 0);
  EXPECT_EQ(sf->rows.size(), 2u);
}

TEST(IntCovTest, SolutionAlwaysFairAndSizeK) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Dataset data = GenIndependent(60, 2, &rng);
    const int c_num = 2 + static_cast<int>(rng.UniformInt(2));
    const Grouping g = GroupBySumRank(data, c_num);
    const int k = c_num + 1 + static_cast<int>(rng.UniformInt(3));
    const GroupBounds bounds = GroupBounds::Proportional(k, g.Counts(), 0.3);
    auto sol = IntCov(data, g, bounds);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(static_cast<int>(sol->rows.size()), k);
    EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0);
  }
}

// The central correctness test: IntCov is exact. Compare against subset
// enumeration on random small instances (paper Thm 3.1).
TEST(IntCovTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(5));
    const Dataset data = GenIndependent(static_cast<size_t>(n), 2, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    const Grouping g = GroupBySumRank(data, c_num);
    const int k = std::min(n, c_num + static_cast<int>(rng.UniformInt(3)));
    if (k < c_num) continue;
    std::vector<int> lower(static_cast<size_t>(c_num), 0);
    std::vector<int> upper(static_cast<size_t>(c_num), k);
    if (rng.Bernoulli(0.6)) {
      // Tighter bounds: one per group at least, cap at 2.
      for (int c = 0; c < c_num; ++c) {
        lower[static_cast<size_t>(c)] = 1;
        upper[static_cast<size_t>(c)] = 2;
      }
      if (c_num * 1 > k || c_num * 2 < k) continue;
    }
    auto bounds = GroupBounds::Explicit(k, lower, upper);
    if (!bounds.ok()) continue;
    if (!bounds->Validate(g.Counts()).ok()) continue;

    auto sol = IntCov(data, g, *bounds);
    ASSERT_TRUE(sol.ok()) << sol.status() << " trial " << trial;
    const double brute = BruteForceOpt(data, g, *bounds);
    ASSERT_GE(brute, 0.0);
    EXPECT_NEAR(sol->mhr, brute, 1e-7)
        << "trial " << trial << " n=" << n << " k=" << k << " C=" << c_num;
  }
}

TEST(IntCovTest, AntiCorrelatedMediumInstance) {
  Rng rng(11);
  const Dataset data = GenAntiCorrelated(500, 2, &rng);
  const Grouping g = GroupBySumRank(data, 3);
  const GroupBounds bounds = GroupBounds::Proportional(6, g.Counts(), 0.1);
  auto sol = IntCov(data, g, bounds);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->rows.size(), 6u);
  EXPECT_EQ(CountViolations(sol->rows, g, bounds), 0);
  EXPECT_GT(sol->mhr, 0.8);  // Sanity: 6 points cover a 2D envelope well.
  // And IntCov beats (or ties) a trivially fair random selection.
  std::vector<int> naive;
  const auto members = g.Members();
  for (int c = 0; c < 3; ++c) {
    naive.push_back(members[static_cast<size_t>(c)][0]);
    naive.push_back(members[static_cast<size_t>(c)][1]);
  }
  const auto sky = ComputeSkyline(data);
  EXPECT_GE(sol->mhr, MhrExact2D(data, sky, naive) - 1e-9);
}

TEST(IntCovTest, StateSpaceGuard) {
  Rng rng(13);
  const Dataset data = GenIndependent(100, 2, &rng);
  const Grouping g = GroupBySumRank(data, 10);
  const GroupBounds bounds = GroupBounds::Proportional(30, g.Counts(), 0.5);
  IntCovOptions opts;
  opts.max_states = 1000;  // Tiny budget -> must refuse, not hang.
  EXPECT_EQ(IntCov(data, g, bounds, opts).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(IntCovTest, KEqualsOneSelectsBestSinglePoint) {
  Rng rng(19);
  const Dataset data = GenIndependent(15, 2, &rng);
  const Grouping g = SingleGroup(15);
  auto bounds = GroupBounds::Explicit(1, {1}, {1});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->rows.size(), 1u);
  // Exhaustive single-point check.
  const auto sky = ComputeSkyline(data);
  double best = 0;
  for (size_t i = 0; i < 15; ++i) {
    best = std::max(best, MhrExact2D(data, sky, {static_cast<int>(i)}));
  }
  EXPECT_NEAR(sol->mhr, best, 1e-9);
}

TEST(IntCovTest, ElapsedTimeRecorded) {
  Rng rng(23);
  const Dataset data = GenIndependent(30, 2, &rng);
  const Grouping g = SingleGroup(30);
  auto bounds = GroupBounds::Explicit(3, {0}, {3});
  ASSERT_TRUE(bounds.ok());
  auto sol = IntCov(data, g, *bounds);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(sol->elapsed_ms, 0.0);
  EXPECT_EQ(sol->algorithm, "IntCov");
}

}  // namespace
}  // namespace fairhms
