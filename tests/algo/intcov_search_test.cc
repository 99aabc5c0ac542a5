// IntCov brackets the optimal threshold, lists only the candidates inside
// the bracket and selects each probe by rank over them. This suite pins it to
// the textbook search over every candidate: sort + unique the whole
// candidate set, then binary-search the distinct values. Both return the
// largest candidate the decision procedure accepts, so rows and mhr must
// match bit for bit, also when points repeat, coarse coordinates make many
// candidates coincide, lines are nearly parallel, the pool has over 20M
// candidate pairs, and the bracket misses the optimum so the full list
// decides.

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "algo/algo_util.h"
#include "algo/fair_interval_cover.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "geom/envelope2d.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::MakeGrouping;

/// IntCov with the full sort + unique + binary search over the exact
/// candidate set, serial. Sets *duplicates when some candidate value repeats.
StatusOr<Solution> SortedSearchIntCov(const Dataset& data, const Grouping& g,
                                      const GroupBounds& bounds,
                                      bool* duplicates) {
  const IntCovOptions defaults;
  FAIRHMS_ASSIGN_OR_RETURN(ProblemInput input,
                           PrepareProblem(data, g, bounds));
  FAIRHMS_ASSIGN_OR_RETURN(
      FairIntervalCoverDp dp,
      FairIntervalCoverDp::Create(bounds, defaults.max_states));
  const Envelope2D env_db = BuildEnvelope2D(data, input.db_rows);
  std::vector<GroupIntervalIndex> index(static_cast<size_t>(g.num_groups));
  auto decide = [&](double tau, std::vector<int>* solution) {
    std::vector<std::vector<CoverInterval>> intervals(
        static_cast<size_t>(g.num_groups));
    for (int row : input.pool) {
      double lo, hi;
      if (env_db.IntervalAbove(data.at(static_cast<size_t>(row), 0),
                               data.at(static_cast<size_t>(row), 1), tau, &lo,
                               &hi)) {
        intervals[static_cast<size_t>(g.group_of[static_cast<size_t>(row)])]
            .push_back({lo, hi, row});
      }
    }
    for (size_t c = 0; c < index.size(); ++c) {
      index[c].Build(std::move(intervals[c]));
    }
    return dp.Decide(index, defaults.tolerance, solution);
  };

  std::vector<double> cand;
  const double max_x = env_db.Eval(1.0);
  const double max_y = env_db.Eval(0.0);
  for (int row : input.pool) {
    const double x = data.at(static_cast<size_t>(row), 0);
    const double y = data.at(static_cast<size_t>(row), 1);
    if (max_x > 0) cand.push_back(std::min(1.0, x / max_x));
    if (max_y > 0) cand.push_back(std::min(1.0, y / max_y));
  }
  for (size_t i = 0; i < input.pool.size(); ++i) {
    const double xi = data.at(static_cast<size_t>(input.pool[i]), 0);
    const double yi = data.at(static_cast<size_t>(input.pool[i]), 1);
    for (size_t j = i + 1; j < input.pool.size(); ++j) {
      const double xj = data.at(static_cast<size_t>(input.pool[j]), 0);
      const double yj = data.at(static_cast<size_t>(input.pool[j]), 1);
      const double denom = (xi - yi) - (xj - yj);
      if (std::fabs(denom) < 1e-15) continue;
      const double lambda = (yj - yi) / denom;
      if (lambda < 0.0 || lambda > 1.0) continue;
      const double env = env_db.Eval(lambda);
      if (env <= 0.0) continue;
      cand.push_back(std::clamp((yi + (xi - yi) * lambda) / env, 0.0, 1.0));
    }
  }
  cand.push_back(1.0);
  std::sort(cand.begin(), cand.end());
  const size_t all = cand.size();
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  *duplicates = cand.size() < all;

  std::vector<int> best, sol;
  bool found = false;
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(cand.size()) - 1;
  while (lo <= hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (decide(cand[static_cast<size_t>(mid)], &sol)) {
      found = true;
      best = sol;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  if (!found) return Status::Infeasible("no fair solution");
  FAIRHMS_RETURN_IF_ERROR(PadSolution(input, &best));
  Solution out;
  out.rows = std::move(best);
  std::sort(out.rows.begin(), out.rows.end());
  out.mhr = MhrExact2D(data, input.db_rows, out.rows);
  return out;
}

/// A random 2-D table of one of four shapes: independent, anticorrelated,
/// coarse-grid (coordinates in steps of 0.1, so many crossing values tie) or
/// with duplicated points.
Dataset RandomTable(int shape, Rng* rng) {
  const size_t n = 12 + rng->UniformInt(60);
  const Dataset base = shape == 1 ? GenAntiCorrelated(n, 2, rng)
                                  : GenIndependent(n, 2, rng);
  std::vector<std::vector<double>> pts;
  for (size_t i = 0; i < base.size(); ++i) {
    std::vector<double> p = {base.at(i, 0), base.at(i, 1)};
    if (shape == 2) {
      for (double& v : p) v = std::round(v * 10.0) / 10.0;
    }
    pts.push_back(p);
    if (shape == 3 && rng->Bernoulli(0.3)) pts.push_back(p);
  }
  return MakeDataset(pts);
}

/// Random proportional or balanced bounds for `g` at size k, or an error when
/// they do not fit its group sizes.
StatusOr<GroupBounds> RandomBounds(int k, const Grouping& g, Rng* rng) {
  StatusOr<GroupBounds> bounds =
      rng->Bernoulli(0.5)
          ? StatusOr<GroupBounds>(
                GroupBounds::Proportional(k, g.Counts(), 0.2))
          : GroupBounds::Balanced(k, g.num_groups, 0.3);
  if (bounds.ok()) FAIRHMS_RETURN_IF_ERROR(bounds->Validate(g.Counts()));
  return bounds;
}

/// Each point assigned to one of `c_num` groups at random.
Grouping RandomGroups(size_t n, int c_num, Rng* rng) {
  std::vector<int> assign(n);
  for (int& a : assign) a = static_cast<int>(rng->UniformInt(c_num));
  return MakeGrouping(assign, c_num);
}

void ExpectSame(const StatusOr<Solution>& sol,
                const StatusOr<Solution>& reference, const std::string& label) {
  ASSERT_EQ(sol.ok(), reference.ok()) << label;
  if (!sol.ok()) return;
  EXPECT_EQ(sol->rows, reference->rows) << label;
  EXPECT_EQ(sol->mhr, reference->mhr) << label;
}

TEST(IntCovSearchTest, RankSelectionMatchesSortedSearch) {
  Rng rng(2025);
  int solved = 0;
  int with_duplicates = 0;
  for (int trial = 0; solved < 240; ++trial) {
    ASSERT_LT(trial, 2000) << "too few feasible instances";
    const int shape = trial % 4;
    const Dataset data = RandomTable(shape, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    const Grouping g = RandomGroups(data.size(), c_num, &rng);
    const int k = 1 + static_cast<int>(rng.UniformInt(8));
    const StatusOr<GroupBounds> bounds = RandomBounds(k, g, &rng);
    if (!bounds.ok()) continue;

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    ExpectSame(IntCov(data, g, *bounds), reference,
               "trial " + std::to_string(trial));
    if (!reference.ok()) continue;
    if (duplicates) ++with_duplicates;
    ++solved;
  }
  EXPECT_GE(with_duplicates, 100);
}

// Over 20M candidate pairs, the search must still be exact. Points on the
// convex curve y = (1 - x)^1.5 are all on the skyline, so all 6502 rows are
// pool rows, and the envelope is just the two axis points.
TEST(IntCovSearchTest, PoolAboveOldPairCapMatchesSortedSearch) {
  Rng rng(6500);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 6500; ++i) {
    const double x = rng.Uniform();
    pts.push_back({x, std::pow(1.0 - x, 1.5)});
  }
  pts.push_back({1.0, 0.0});
  pts.push_back({0.0, 1.0});
  const Dataset data = MakeDataset(pts);
  const Grouping g = RandomGroups(data.size(), 3, &rng);
  auto bounds = GroupBounds::Explicit(6, {1, 1, 1}, {3, 3, 3});
  ASSERT_TRUE(bounds.ok());
  auto input = PrepareProblem(data, g, *bounds);
  ASSERT_TRUE(input.ok()) << input.status();
  ASSERT_GE(input->pool.size(), 6400u);

  bool duplicates = false;
  const auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSame(IntCov(data, g, *bounds), reference, "6502 rows");
}

// Twins offset by ~1e-15 along the anti-diagonal: their lines cross inside
// [0, 1] with |denom| just above the 1e-15 cut, where the computed crossing
// is mostly rounding.
TEST(IntCovSearchTest, NearlyParallelLinesMatchSortedSearch) {
  Rng rng(15);
  int solved = 0;
  int near_parallel_pairs = 0;
  for (int trial = 0; solved < 60; ++trial) {
    ASSERT_LT(trial, 600) << "too few feasible instances";
    const Dataset base = GenAntiCorrelated(20 + rng.UniformInt(40), 2, &rng);
    std::vector<std::vector<double>> pts;
    for (size_t i = 0; i < base.size(); ++i) {
      const double x = base.at(i, 0);
      const double y = base.at(i, 1);
      pts.push_back({x, y});
      const double dx = rng.Uniform(0.5e-15, 4e-15);
      pts.push_back({x + dx, y - dx * rng.Uniform(0.2, 5.0)});
    }
    const Dataset data = MakeDataset(pts);
    const Grouping g =
        RandomGroups(data.size(), 1 + static_cast<int>(rng.UniformInt(3)),
                     &rng);
    const int k = 1 + static_cast<int>(rng.UniformInt(8));
    const StatusOr<GroupBounds> bounds = RandomBounds(k, g, &rng);
    if (!bounds.ok()) continue;
    auto input = PrepareProblem(data, g, *bounds);
    ASSERT_TRUE(input.ok());
    for (size_t i = 0; i < input->pool.size(); ++i) {
      for (size_t j = i + 1; j < input->pool.size(); ++j) {
        const auto a = static_cast<size_t>(input->pool[i]);
        const auto b = static_cast<size_t>(input->pool[j]);
        const double denom = (data.at(a, 0) - data.at(a, 1)) -
                             (data.at(b, 0) - data.at(b, 1));
        const double lambda = (data.at(b, 1) - data.at(a, 1)) / denom;
        if (std::fabs(denom) >= 1e-15 && std::fabs(denom) < 1e-13 &&
            lambda >= 0.0 && lambda <= 1.0) {
          ++near_parallel_pairs;
        }
      }
    }

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    ExpectSame(IntCov(data, g, *bounds), reference,
               "trial " + std::to_string(trial));
    if (reference.ok()) ++solved;
  }
  EXPECT_GE(near_parallel_pairs, 500);
}

// Every point also sits in another group, so every line has a twin that the
// decision procedure sees in a different group index.
TEST(IntCovSearchTest, DuplicateRowsAcrossGroupsMatchSortedSearch) {
  Rng rng(77);
  int solved = 0;
  for (int trial = 0; solved < 60; ++trial) {
    ASSERT_LT(trial, 600) << "too few feasible instances";
    const Dataset base = RandomTable(trial % 3, &rng);
    const int c_num = 2 + static_cast<int>(rng.UniformInt(2));
    std::vector<std::vector<double>> pts;
    std::vector<int> assign;
    for (size_t i = 0; i < base.size(); ++i) {
      const int group = static_cast<int>(rng.UniformInt(c_num));
      const int other =
          (group + 1 + static_cast<int>(rng.UniformInt(c_num - 1))) % c_num;
      for (const int c : {group, other}) {
        pts.push_back({base.at(i, 0), base.at(i, 1)});
        assign.push_back(c);
      }
    }
    const Dataset data = MakeDataset(pts);
    const Grouping g = MakeGrouping(assign, c_num);
    const int k = c_num + static_cast<int>(rng.UniformInt(6));
    const StatusOr<GroupBounds> bounds = RandomBounds(k, g, &rng);
    if (!bounds.ok()) continue;

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    ExpectSame(IntCov(data, g, *bounds), reference,
               "trial " + std::to_string(trial));
    if (reference.ok()) ++solved;
  }
}

// k is the number of envelope owners and the bounds leave every group free,
// so the optimum is tau = 1: the bracket never rejects, and 1.0 must be the
// candidate found.
TEST(IntCovSearchTest, OptimumOfOneMatchesSortedSearch) {
  Rng rng(1);
  int at_one = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Dataset data = RandomTable(trial % 4, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    const Grouping g = RandomGroups(data.size(), c_num, &rng);
    std::vector<int> all(data.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    const int k =
        static_cast<int>(BuildEnvelope2D(data, all).pieces().size());
    auto bounds = GroupBounds::Explicit(k, std::vector<int>(c_num, 0),
                                        std::vector<int>(c_num, k));
    ASSERT_TRUE(bounds.ok());

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    ASSERT_TRUE(reference.ok()) << "trial " << trial;
    ExpectSame(IntCov(data, g, *bounds), reference,
               "trial " + std::to_string(trial));
    if (reference->mhr == 1.0) ++at_one;
  }
  EXPECT_GE(at_one, 50);
}

// The bounds force every pick into a group whose points all sit at a third
// of the others' scale, so the optimum is low and nearly every pool row can
// reach the bracket's floor.
TEST(IntCovSearchTest, LowOptimumUnderTightBoundsMatchesSortedSearch) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const Dataset base = RandomTable(trial % 4, &rng);
    std::vector<std::vector<double>> pts;
    std::vector<int> assign;
    for (size_t i = 0; i < base.size(); ++i) {
      const bool poor = rng.Bernoulli(0.5);
      const double scale = poor ? 1.0 / 3.0 : 1.0;
      pts.push_back({base.at(i, 0) * scale, base.at(i, 1) * scale});
      assign.push_back(poor ? 1 : 0);
    }
    const Dataset data = MakeDataset(pts);
    const Grouping g = MakeGrouping(assign, 2);
    const int k = 1 + static_cast<int>(rng.UniformInt(4));
    auto bounds = GroupBounds::Explicit(k, {0, k}, {0, k});
    ASSERT_TRUE(bounds.ok());
    if (!bounds->Validate(g.Counts()).ok()) continue;

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    ASSERT_TRUE(reference.ok()) << "trial " << trial;
    EXPECT_LT(reference->mhr, 0.5) << "trial " << trial;
    ExpectSame(IntCov(data, g, *bounds), reference,
               "trial " + std::to_string(trial));
  }
}

// A floor above the optimum leaves no acceptable candidate in the window, so
// the search must relist every candidate; a floor of 0 lists them all at
// once. Both give the full search's answer.
TEST(IntCovSearchTest, FloorAboveOptimumRelistsEveryCandidate) {
  Rng rng(4);
  int relisted = 0;
  int solved = 0;
  for (int trial = 0; solved < 80; ++trial) {
    ASSERT_LT(trial, 800) << "too few feasible instances";
    const Dataset data = RandomTable(trial % 4, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    const Grouping g = RandomGroups(data.size(), c_num, &rng);
    const int k = 1 + static_cast<int>(rng.UniformInt(8));
    const StatusOr<GroupBounds> bounds = RandomBounds(k, g, &rng);
    if (!bounds.ok()) continue;

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    for (const double floor : {0.0, 0.5, 0.9, 1.0}) {
      ExpectSame(internal::IntCovAboveFloor(data, g, *bounds, floor),
                 reference,
                 "trial " + std::to_string(trial) + " floor " +
                     std::to_string(floor));
    }
    if (!reference.ok()) continue;
    ++solved;
    if (reference->mhr < 1.0) ++relisted;
  }
  EXPECT_GE(relisted, 20);
}

}  // namespace
}  // namespace fairhms
