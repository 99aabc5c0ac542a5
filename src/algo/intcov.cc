#include "algo/intcov.h"

#include <algorithm>

#include "api/registry.h"
#include <cassert>
#include <cmath>

#include "algo/algo_util.h"
#include "algo/fair_interval_cover.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/exact_evaluator.h"
#include "geom/envelope2d.h"

namespace fairhms {

StatusOr<Solution> IntCov(const Dataset& data, const Grouping& grouping,
                          const GroupBounds& bounds,
                          const IntCovOptions& opts) {
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

  // Decision procedure for one tau.
  std::vector<GroupIntervalIndex> group_index(static_cast<size_t>(c_num));
  std::vector<std::vector<CoverInterval>> group_intervals(
      static_cast<size_t>(c_num));
  auto decide = [&](double tau, std::vector<int>* solution) -> bool {
    for (auto& v : group_intervals) v.clear();
    for (int row : input.pool) {
      const double x = data.at(static_cast<size_t>(row), 0);
      const double y = data.at(static_cast<size_t>(row), 1);
      double lo, hi;
      if (env_db.IntervalAbove(x, y, tau, &lo, &hi)) {
        const int g = grouping.group_of[static_cast<size_t>(row)];
        group_intervals[static_cast<size_t>(g)].push_back({lo, hi, row});
      }
    }
    for (int c = 0; c < c_num; ++c) {
      group_index[static_cast<size_t>(c)].Build(
          std::move(group_intervals[static_cast<size_t>(c)]));
      group_intervals[static_cast<size_t>(c)].clear();
    }
    return dp.Decide(group_index, opts.tolerance, solution);
  };

  std::vector<int> best_solution;
  double best_tau = -1.0;

  const uint64_t pool_n = input.pool.size();
  const uint64_t pair_count = pool_n * (pool_n - 1) / 2;
  if (pair_count <= opts.max_pair_candidates) {
    // Exact candidate enumeration (paper Algorithm 1, lines 1-8).
    std::vector<double> cand;
    cand.reserve(pool_n * 2 + pair_count + 1);
    const double max_x = env_db.Eval(1.0);
    const double max_y = env_db.Eval(0.0);
    for (int row : input.pool) {
      const double x = data.at(static_cast<size_t>(row), 0);
      const double y = data.at(static_cast<size_t>(row), 1);
      if (max_x > 0) cand.push_back(std::min(1.0, x / max_x));
      if (max_y > 0) cand.push_back(std::min(1.0, y / max_y));
    }
    // Pairwise line crossings, fanned out over a fixed partition of the
    // outer rows. Block 0 appends straight to `cand` (reserved above), every
    // other block to its own vector, concatenated afterwards. The search
    // below selects by rank, which does not depend on the candidates' order,
    // so the answer is bit-identical for every thread count.
    {
      const size_t blocks = std::min<size_t>(
          pool_n, static_cast<size_t>(ResolveThreads(opts.threads)));
      std::vector<std::vector<double>> block_cand(blocks);
      ParallelFor(opts.threads, blocks, [&](size_t b0, size_t b1) {
        for (size_t b = b0; b < b1; ++b) {
          std::vector<double>& local = b == 0 ? cand : block_cand[b];
          for (size_t i = pool_n * b / blocks; i < pool_n * (b + 1) / blocks;
               ++i) {
            const double xi = data.at(static_cast<size_t>(input.pool[i]), 0);
            const double yi = data.at(static_cast<size_t>(input.pool[i]), 1);
            for (size_t j = i + 1; j < pool_n; ++j) {
              const double xj = data.at(static_cast<size_t>(input.pool[j]), 0);
              const double yj = data.at(static_cast<size_t>(input.pool[j]), 1);
              const double denom = (xi - yi) - (xj - yj);
              if (std::fabs(denom) < 1e-15) continue;
              const double lambda = (yj - yi) / denom;
              if (lambda < 0.0 || lambda > 1.0) continue;
              const double env = env_db.Eval(lambda);
              if (env <= 0.0) continue;
              const double score = yi + (xi - yi) * lambda;
              local.push_back(std::clamp(score / env, 0.0, 1.0));
            }
          }
        }
      });
      for (size_t b = 1; b < blocks; ++b) {
        cand.insert(cand.end(), block_cand[b].begin(), block_cand[b].end());
      }
    }
    cand.push_back(1.0);

    // Binary search over the ranks of the candidate multiset for the largest
    // feasible candidate (feasibility is monotone decreasing in tau). Each
    // probe is placed by rank selection on the live subrange, which always
    // holds exactly the ranks lo..hi: about 2N work instead of a full sort.
    int64_t lo = 0;
    int64_t hi = static_cast<int64_t>(cand.size()) - 1;
    std::vector<int> sol;
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
  } else {
    // Continuous bisection fallback for very large pools.
    double lo = 0.0;
    double hi = 1.0;
    std::vector<int> sol;
    if (decide(1.0, &sol)) {
      best_tau = 1.0;
      best_solution = sol;
    } else {
      for (int it = 0; it < 45; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (decide(mid, &sol)) {
          best_tau = mid;
          best_solution = sol;
          lo = mid;
        } else {
          hi = mid;
        }
      }
      if (best_tau < 0.0 && decide(0.0, &sol)) {
        best_tau = 0.0;
        best_solution = sol;
      }
    }
  }

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

namespace {

IntCovOptions IntCovOptionsFromContext(const SolveContext& ctx) {
  IntCovOptions opts;
  opts.max_states = static_cast<uint64_t>(ctx.params->IntOr(
      "max_states", static_cast<int64_t>(opts.max_states)));
  opts.max_pair_candidates = static_cast<uint64_t>(ctx.params->IntOr(
      "max_pair_candidates", static_cast<int64_t>(opts.max_pair_candidates)));
  opts.tolerance = ctx.params->DoubleOr("tolerance", opts.tolerance);
  opts.threads = ctx.threads;
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
      {"max_pair_candidates", ParamType::kInt,
       "above this many pairwise tau candidates, fall back to bisection",
       "20000000", 1, 1e308, false, false, {}},
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
