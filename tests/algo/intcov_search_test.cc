// IntCov's threshold search selects each probe by rank over the unsorted
// candidate multiset. This suite pins it to the textbook search it replaced:
// sort + unique the same candidates, then binary-search the distinct values.
// Both return the largest candidate the decision procedure accepts, so rows
// and mhr must match bit for bit, at every thread count, also when points
// repeat and coarse coordinates make many candidates coincide.

#include <algorithm>
#include <cmath>

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

TEST(IntCovSearchTest, RankSelectionMatchesSortedSearch) {
  Rng rng(2025);
  int solved = 0;
  int with_duplicates = 0;
  for (int trial = 0; solved < 240; ++trial) {
    ASSERT_LT(trial, 2000) << "too few feasible instances";
    const int shape = trial % 4;
    const Dataset data = RandomTable(shape, &rng);
    const int c_num = 1 + static_cast<int>(rng.UniformInt(3));
    std::vector<int> assign(data.size());
    for (int& a : assign) a = static_cast<int>(rng.UniformInt(c_num));
    const Grouping g = MakeGrouping(assign, c_num);
    const int k = 1 + static_cast<int>(rng.UniformInt(8));
    StatusOr<GroupBounds> bounds =
        rng.Bernoulli(0.5)
            ? StatusOr<GroupBounds>(
                  GroupBounds::Proportional(k, g.Counts(), 0.2))
            : GroupBounds::Balanced(k, c_num, 0.3);
    if (!bounds.ok() || !bounds->Validate(g.Counts()).ok()) continue;

    bool duplicates = false;
    auto reference = SortedSearchIntCov(data, g, *bounds, &duplicates);
    for (const int threads : {1, 4}) {
      IntCovOptions opts;
      opts.threads = threads;
      auto sol = IntCov(data, g, *bounds, opts);
      ASSERT_EQ(sol.ok(), reference.ok())
          << "trial " << trial << " threads " << threads;
      if (!sol.ok()) continue;
      EXPECT_EQ(sol->rows, reference->rows)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(sol->mhr, reference->mhr)
          << "trial " << trial << " threads " << threads;
    }
    if (!reference.ok()) continue;
    if (duplicates) ++with_duplicates;
    ++solved;
  }
  EXPECT_GE(with_duplicates, 100);
}

}  // namespace
}  // namespace fairhms
