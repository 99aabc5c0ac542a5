#include <algorithm>

#include "algo/algo_util.h"
#include "algo/baselines.h"
#include "algo/group_adapter.h"
#include "core/exact_evaluator.h"

namespace fairhms {

StatusOr<std::vector<int>> RdpGreedyRows(const Dataset& data,
                                         const std::vector<int>& rows, int k,
                                         const RdpGreedyOptions& opts) {
  if (rows.empty()) return Status::InvalidArgument("empty candidate set");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");

  // Seed with the best point in the first dimension (the original's start).
  int seed_row = rows.front();
  for (int r : rows) {
    if (data.at(static_cast<size_t>(r), 0) >
        data.at(static_cast<size_t>(seed_row), 0)) {
      seed_row = r;
    }
  }
  std::vector<int> solution = {seed_row};

  const int target = std::min<int>(k, static_cast<int>(rows.size()));
  while (static_cast<int>(solution.size()) < target) {
    const RegretWitness witness =
        MaxRegretWitnessLp(data, rows, solution, opts.threads);
    if (witness.row < 0 || witness.regret <= opts.regret_tolerance) break;
    solution.push_back(witness.row);
  }

  // Zero regret (or exhausted witnesses): fill remaining slots.
  FillBySum(data, rows, static_cast<size_t>(target), &solution);
  std::sort(solution.begin(), solution.end());
  return solution;
}

namespace {

const BaselineRegistrar rdp_greedy_registrar([] {
  BaselineSpec spec;
  spec.name = "rdp_greedy";
  spec.g_name = "g_greedy";
  spec.display_name = "Greedy";
  spec.summary =
      "RDP-Greedy baseline: repeatedly insert the max-regret witness "
      "(unconstrained, runs on the global skyline)";
  spec.g_summary = "RDP-Greedy run per group and unioned (fair by quotas)";
  spec.params = {
      {"regret_tolerance", ParamType::kDouble,
       "stop early when the max regret drops below this", "1e-9", 0.0, 1e308,
       false, false, {}},
  };
  spec.make_solver = [](const SolveContext& ctx) -> BaseSolver {
    RdpGreedyOptions opts;
    opts.regret_tolerance =
        ctx.params->DoubleOr("regret_tolerance", opts.regret_tolerance);
    opts.threads = ctx.threads;
    return [opts](const Dataset& d, const std::vector<int>& rows, int k) {
      return RdpGreedyRows(d, rows, k, opts);
    };
  };
  return spec;
}());

}  // namespace

namespace internal {
int LinkAlgoRdpGreedy() { return 0; }
}  // namespace internal

}  // namespace fairhms
