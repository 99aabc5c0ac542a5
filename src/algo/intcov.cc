#include "algo/intcov.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "algo/algo_util.h"
#include "algo/fair_interval_cover.h"
#include "api/registry.h"
#include "common/stopwatch.h"
#include "core/exact_evaluator.h"
#include "geom/envelope2d.h"

namespace fairhms {

namespace {

// Bisection steps on tau over [0, 1] before any candidate is listed. The
// bracket they leave is 2^-12 wide; few rows reach its lower end and few
// candidates fall inside it.
constexpr int kBracketSteps = 12;

// Slack between a row's peak and a threshold, in ratio units per unit of
// coordinate scale (see PoolLines).
constexpr double kPeakSlack = 1e-9;

/// A fair-pool row as the search reads it: the score line
/// y + (x - y) * lambda, and `peak`, the highest ratio that line reaches
/// against the database envelope over lambda in [0, 1].
struct PoolLine {
  double x;
  double y;
  int row;
  int group;
  double peak;
};

/// The pool's lines in pool order, each with its peak, and in *margin the
/// slack a comparison of a peak with a threshold allows.
///
/// On each envelope piece the ratio line / envelope is a Moebius function of
/// lambda, hence monotone, so the peak is reached at a piece end: one pass
/// over the breakpoints per row finds it. Each breakpoint takes the lower of
/// its two pieces' values, so the peak also bounds whichever piece
/// Envelope2D::Eval picks there.
///
/// Why the margin makes pruning safe:
///   * Listing. A crossing candidate of rows i and j is f_i(lambda) /
///     env(lambda) at the computed crossing lambda in [0, 1], so it is at
///     most peak_i, up to rounding. Against row j: rounding puts lambda off
///     the true crossing by a relative error of about
///     u * (|slope_i| + |slope_j|) / |denom|, and the lines' gap there is
///     |denom| times that miss, so a few ulps of the coordinates whatever
///     denom is. At the smallest denom the 1e-15 cut lets through, lambda is
///     noise, but the lines are nearly parallel: lambda in [0, 1] means
///     |yj - yi| <= |denom|, so they differ by at most 2|denom| anywhere on
///     [0, 1]. Either way the candidate is at most peak_j plus a few ulps
///     of the coordinates over the envelope.
///   * Decision. Envelope2D::IntervalAbove accepts a line with kEps = 1e-12
///     of slack in value and in lambda, so an accepted line clears
///     tau * envelope at some piece end to within (2 + 4M) * kEps, M the
///     largest coordinate: its peak is at least tau - 6e-12 * max(1, M) /
///     min envelope.
/// kPeakSlack * max(1, M) / min envelope is far above both, so a row whose
/// peak is below a threshold by more than the margin has no interval there
/// and no candidate at or above it. Where the envelope reaches 0 the ratio
/// is unbounded: the margin is +inf and nothing is pruned.
std::vector<PoolLine> PoolLines(const Dataset& data, const Grouping& grouping,
                                const std::vector<int>& pool,
                                const Envelope2D& env, double* margin) {
  std::vector<double> at;
  std::vector<double> env_at;
  for (const Envelope2D::Piece& p : env.pieces()) {
    const double lo_value = p.intercept + p.slope * p.lo;
    if (!at.empty() && at.back() == p.lo) {
      env_at.back() = std::min(env_at.back(), lo_value);
    } else {
      at.push_back(p.lo);
      env_at.push_back(lo_value);
    }
    at.push_back(p.hi);
    env_at.push_back(p.intercept + p.slope * p.hi);
  }
  const double env_min = *std::min_element(env_at.begin(), env_at.end());
  double scale = std::max(1.0, *std::max_element(env_at.begin(), env_at.end()));

  std::vector<PoolLine> lines;
  lines.reserve(pool.size());
  for (int row : pool) {
    const double x = data.at(static_cast<size_t>(row), 0);
    const double y = data.at(static_cast<size_t>(row), 1);
    scale = std::max({scale, std::fabs(x), std::fabs(y)});
    double peak = std::numeric_limits<double>::infinity();
    if (env_min > 0.0) {
      peak = -std::numeric_limits<double>::infinity();
      for (size_t b = 0; b < at.size(); ++b) {
        peak = std::max(peak, (y + (x - y) * at[b]) / env_at[b]);
      }
    }
    lines.push_back(
        {x, y, row, grouping.group_of[static_cast<size_t>(row)], peak});
  }
  *margin = env_min > 0.0 ? kPeakSlack * scale / env_min
                          : std::numeric_limits<double>::infinity();
  return lines;
}

/// IntCov over the candidates in [floor, 1], or, without a given floor, in
/// the window a bisection on tau brackets; every candidate is relisted when
/// none in the window is accepted.
StatusOr<Solution> Solve(const Dataset& data, const Grouping& grouping,
                         const GroupBounds& bounds, const IntCovOptions& opts,
                         std::optional<double> given_floor) {
  if (data.dim() != 2) {
    return Status::InvalidArgument("IntCov requires a 2-dimensional dataset");
  }
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.cache));
  if (input.pool.empty()) return Status::InvalidArgument("empty pool");

  const int c_num = grouping.num_groups;
  FAIRHMS_ASSIGN_OR_RETURN(
      FairIntervalCoverDp dp,
      FairIntervalCoverDp::Create(bounds, opts.max_states));

  const Envelope2D env_db = BuildEnvelope2D(data, input.db_rows);
  double margin = 0.0;
  const std::vector<PoolLine> lines =
      PoolLines(data, grouping, input.pool, env_db, &margin);

  // Decision procedure for one tau. Rows whose peak is below tau by more
  // than the margin have no interval and are skipped; the rest keep pool
  // order, so every group index gets the intervals it would get unpruned.
  std::vector<GroupIntervalIndex> group_index(static_cast<size_t>(c_num));
  std::vector<std::vector<CoverInterval>> group_intervals(
      static_cast<size_t>(c_num));
  auto decide = [&](double tau, std::vector<int>* solution) -> bool {
    for (auto& v : group_intervals) v.clear();
    for (const PoolLine& line : lines) {
      if (line.peak < tau - margin) continue;
      double lo, hi;
      if (env_db.IntervalAbove(line.x, line.y, tau, &lo, &hi)) {
        group_intervals[static_cast<size_t>(line.group)].push_back(
            {lo, hi, line.row});
      }
    }
    for (int c = 0; c < c_num; ++c) {
      group_index[static_cast<size_t>(c)].Build(
          std::move(group_intervals[static_cast<size_t>(c)]));
      group_intervals[static_cast<size_t>(c)].clear();
    }
    return dp.Decide(group_index, opts.tolerance, solution);
  };

  // The candidate MHR values in [lo, hi] (paper Algorithm 1, lines 1-8):
  // the axis values, 1.0, and the pairwise crossings of the rows that can
  // reach lo, each computed exactly as over the whole pool. [0, 1] lists
  // every candidate.
  auto list = [&](double lo, double hi) {
    std::vector<double> cand;
    auto keep = [&](double v) {
      if (v >= lo && v <= hi) cand.push_back(v);
    };
    const double max_x = env_db.Eval(1.0);
    const double max_y = env_db.Eval(0.0);
    std::vector<const PoolLine*> reach;
    for (const PoolLine& line : lines) {
      if (max_x > 0) keep(std::min(1.0, line.x / max_x));
      if (max_y > 0) keep(std::min(1.0, line.y / max_y));
      if (lo <= 0.0 || line.peak >= lo - margin) reach.push_back(&line);
    }
    for (size_t i = 0; i < reach.size(); ++i) {
      const double xi = reach[i]->x;
      const double yi = reach[i]->y;
      for (size_t j = i + 1; j < reach.size(); ++j) {
        const double xj = reach[j]->x;
        const double yj = reach[j]->y;
        const double denom = (xi - yi) - (xj - yj);
        if (std::fabs(denom) < 1e-15) continue;
        const double lambda = (yj - yi) / denom;
        if (lambda < 0.0 || lambda > 1.0) continue;
        const double env = env_db.Eval(lambda);
        if (env <= 0.0) continue;
        const double score = yi + (xi - yi) * lambda;
        keep(std::clamp(score / env, 0.0, 1.0));
      }
    }
    keep(1.0);
    return cand;
  };

  // Binary search over the ranks of the candidate multiset for the largest
  // feasible candidate (feasibility is monotone decreasing in tau). Each
  // probe is placed by rank selection on the live subrange, which always
  // holds exactly the ranks lo..hi: about 2N work instead of a full sort.
  std::vector<int> best_solution;
  double best_tau = -1.0;
  std::vector<int> sol;
  auto search = [&](std::vector<double> cand) {
    int64_t lo = 0;
    int64_t hi = static_cast<int64_t>(cand.size()) - 1;
    while (lo <= hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      std::nth_element(cand.begin() + lo, cand.begin() + mid,
                       cand.begin() + hi + 1);
      if (decide(cand[static_cast<size_t>(mid)], &sol)) {
        best_tau = cand[static_cast<size_t>(mid)];
        best_solution = sol;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  };

  // Bracket the optimum: the last accepted tau is a floor (the optimum is a
  // candidate at or above it), the last rejected one a ceiling.
  double floor = given_floor.value_or(0.0);
  double ceil = 1.0;
  if (!given_floor) {
    for (int step = 0; step < kBracketSteps; ++step) {
      const double mid = 0.5 * (floor + ceil);
      if (decide(mid, &sol)) {
        floor = mid;
      } else {
        ceil = mid;
      }
    }
  }
  search(list(floor, ceil));
  // Rounding can leave the optimum's computed value just outside the
  // window; then nothing in it is accepted, and the full list decides.
  if (best_tau < 0.0 && (floor > 0.0 || ceil < 1.0)) search(list(0.0, 1.0));

  if (best_tau < 0.0) {
    return Status::Infeasible("no fair solution found at any threshold");
  }
  FAIRHMS_RETURN_IF_ERROR(PadSolution(input, &best_solution));

  Solution out;
  out.rows = std::move(best_solution);
  std::sort(out.rows.begin(), out.rows.end());
  out.mhr = MinHappinessRatio2D(env_db, BuildEnvelope2D(data, out.rows));
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = "IntCov";
  return out;
}

}  // namespace

StatusOr<Solution> IntCov(const Dataset& data, const Grouping& grouping,
                          const GroupBounds& bounds,
                          const IntCovOptions& opts) {
  return Solve(data, grouping, bounds, opts, std::nullopt);
}

namespace internal {

StatusOr<Solution> IntCovAboveFloor(const Dataset& data,
                                    const Grouping& grouping,
                                    const GroupBounds& bounds, double floor,
                                    const IntCovOptions& opts) {
  return Solve(data, grouping, bounds, opts, floor);
}

}  // namespace internal

namespace {

IntCovOptions IntCovOptionsFromContext(const SolveContext& ctx) {
  IntCovOptions opts;
  opts.max_states = static_cast<uint64_t>(ctx.params->IntOr(
      "max_states", static_cast<int64_t>(opts.max_states)));
  opts.tolerance = ctx.params->DoubleOr("tolerance", opts.tolerance);
  opts.cache = ctx.cache;
  return opts;
}

const AlgorithmRegistrar intcov_registrar([] {
  AlgorithmInfo info;
  info.name = "intcov";
  info.display_name = "IntCov";
  info.summary =
      "exact FairHMS via fair interval cover (2D; higher-D requests are "
      "solved on a 2-attribute projection)";
  info.caps.exact_2d = true;
  info.caps.fairness_aware = true;
  info.params = {
      {"max_states", ParamType::kInt,
       "abort when the DP state space exceeds this", "50000000", 1, 1e308,
       false, false, {}},
      {"tolerance", ParamType::kDouble, "coverage/eligibility tolerance",
       "1e-9", 0.0, 1.0, true, false, {}},
  };
  info.solve = [](const SolveContext& ctx) {
    return IntCov(*ctx.data, *ctx.grouping, *ctx.bounds,
                  IntCovOptionsFromContext(ctx));
  };
  return info;
}());

}  // namespace

namespace internal {
int LinkAlgoIntCov() { return 0; }
}  // namespace internal

}  // namespace fairhms
