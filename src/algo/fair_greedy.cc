#include "algo/fair_greedy.h"

#include <algorithm>
#include <numeric>

#include "api/registry.h"

#include "algo/algo_util.h"
#include "common/stopwatch.h"
#include "core/exact_evaluator.h"
#include "fairness/matroid.h"
#include "geom/vec.h"

namespace fairhms {

StatusOr<Solution> FairGreedy(const Dataset& data, const Grouping& grouping,
                              const GroupBounds& bounds,
                              const FairGreedyOptions& opts) {
  Stopwatch timer;
  FAIRHMS_ASSIGN_OR_RETURN(
      ProblemInput input,
      PrepareProblem(data, grouping, bounds, opts.cache));
  if (input.pool.empty()) return Status::InvalidArgument("empty pool");

  const FairnessMatroid matroid(bounds);
  FairSelection sel(&matroid, &grouping);

  // Seed: the feasible pool point with the best first-dimension value
  // (mirrors RDP-Greedy's start).
  {
    int seed_row = -1;
    for (int r : input.pool) {
      if (!sel.CanAdd(r)) continue;
      if (seed_row < 0 || data.at(static_cast<size_t>(r), 0) >
                              data.at(static_cast<size_t>(seed_row), 0)) {
        seed_row = r;
      }
    }
    if (seed_row < 0) return Status::Infeasible("no addable pool point");
    sel.Add(seed_row);
  }

  while (!sel.IsMaximal()) {
    const std::vector<double> regrets =
        AllWitnessRegretsLp(data, input.pool, sel.rows(), opts.threads);
    // Highest-regret feasible candidate.
    int best_row = -1;
    double best_regret = -1.0;
    for (size_t i = 0; i < input.pool.size(); ++i) {
      const int r = input.pool[i];
      if (regrets[i] > best_regret && sel.CanAdd(r)) {
        // Skip rows already selected (their regret is 0 anyway, but be
        // explicit for the degenerate all-zero case).
        if (std::find(sel.rows().begin(), sel.rows().end(), r) !=
            sel.rows().end()) {
          continue;
        }
        best_regret = regrets[i];
        best_row = r;
      }
    }
    if (best_row < 0 || best_regret <= opts.regret_tolerance) break;
    sel.Add(best_row);
  }

  // Regret hit zero early (or pool exhausted): pad to a fair size-k set.
  std::vector<int> solution = sel.rows();
  FAIRHMS_RETURN_IF_ERROR(PadSolution(input, &solution));

  Solution out;
  out.rows = std::move(solution);
  std::sort(out.rows.begin(), out.rows.end());
  out.mhr = MhrExactLp(data, input.db_rows, out.rows, opts.threads);
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = "F-Greedy";
  return out;
}

namespace {

const AlgorithmRegistrar fair_greedy_registrar([] {
  AlgorithmInfo info;
  info.name = "fair_greedy";
  info.display_name = "F-Greedy";
  info.summary =
      "matroid-greedy max-regret insertion (one witness LP per candidate "
      "per round)";
  info.caps.fairness_aware = true;
  info.params = {
      {"regret_tolerance", ParamType::kDouble,
       "stop early when the max regret drops below this", "1e-9", 0.0, 1e308,
       false, false, {}},
  };
  info.solve = [](const SolveContext& ctx) {
    FairGreedyOptions opts;
    opts.regret_tolerance =
        ctx.params->DoubleOr("regret_tolerance", opts.regret_tolerance);
    opts.threads = ctx.threads;
    opts.cache = ctx.cache;
    return FairGreedy(*ctx.data, *ctx.grouping, *ctx.bounds, opts);
  };
  return info;
}());

}  // namespace

namespace internal {
int LinkAlgoFairGreedy() { return 0; }
}  // namespace internal

}  // namespace fairhms
