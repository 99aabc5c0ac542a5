#include <algorithm>

#include "algo/algo_util.h"
#include "algo/baselines.h"
#include "algo/group_adapter.h"
#include "api/registry.h"
#include "common/stopwatch.h"
#include "core/exact_evaluator.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

/// Unused rows sorted by descending attribute sum (deterministic filler).
std::vector<int> FillerOrder(const Dataset& data, const std::vector<int>& rows) {
  std::vector<int> order = rows;
  const size_t d = static_cast<size_t>(data.dim());
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = SumCoords(data.point(static_cast<size_t>(a)), d);
    const double sb = SumCoords(data.point(static_cast<size_t>(b)), d);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

}  // namespace

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
  if (static_cast<int>(solution.size()) < target) {
    for (int r : FillerOrder(data, rows)) {
      if (static_cast<int>(solution.size()) >= target) break;
      if (std::find(solution.begin(), solution.end(), r) == solution.end()) {
        solution.push_back(r);
      }
    }
  }
  std::sort(solution.begin(), solution.end());
  return solution;
}

StatusOr<Solution> RdpGreedy(const Dataset& data, const std::vector<int>& rows,
                             int k, const RdpGreedyOptions& opts) {
  Stopwatch timer;
  Solution out;
  FAIRHMS_ASSIGN_OR_RETURN(out.rows, RdpGreedyRows(data, rows, k, opts));
  out.mhr = MhrExactLp(data, rows, out.rows, opts.threads);
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = "Greedy";
  return out;
}

namespace {

RdpGreedyOptions RdpGreedyOptionsFromContext(const SolveContext& ctx) {
  RdpGreedyOptions opts;
  opts.regret_tolerance =
      ctx.params->DoubleOr("regret_tolerance", opts.regret_tolerance);
  opts.threads = ctx.threads;
  return opts;
}

std::vector<ParamSpec> RdpGreedyParamSchema() {
  return {
      {"regret_tolerance", ParamType::kDouble,
       "stop early when the max regret drops below this", "1e-9", 0.0, 1e308,
       false, false, {}},
  };
}

const AlgorithmRegistrar rdp_greedy_registrar([] {
  AlgorithmInfo info;
  info.name = "rdp_greedy";
  info.display_name = "Greedy";
  info.summary =
      "RDP-Greedy baseline: repeatedly insert the max-regret witness "
      "(unconstrained, runs on the global skyline)";
  info.params = RdpGreedyParamSchema();
  info.solve = [](const SolveContext& ctx) {
    return RdpGreedy(*ctx.data, *ctx.skyline, ctx.bounds->k,
                     RdpGreedyOptionsFromContext(ctx));
  };
  return info;
}());

const AlgorithmRegistrar g_greedy_registrar([] {
  AlgorithmInfo info;
  info.name = "g_greedy";
  info.display_name = "G-Greedy";
  info.summary = "RDP-Greedy run per group and unioned (fair by quotas)";
  info.caps.fairness_aware = true;
  info.params = RdpGreedyParamSchema();
  info.solve = [](const SolveContext& ctx) {
    const RdpGreedyOptions opts = RdpGreedyOptionsFromContext(ctx);
    GroupAdapterOptions adapter_opts;
    adapter_opts.threads = ctx.threads;
    adapter_opts.cache = ctx.cache;
    return GroupAdapt(
        [opts](const Dataset& d, const std::vector<int>& rows, int k) {
          return RdpGreedyRows(d, rows, k, opts);
        },
        "Greedy", *ctx.data, *ctx.grouping, *ctx.bounds, adapter_opts);
  };
  return info;
}());

}  // namespace

namespace internal {
int LinkAlgoRdpGreedy() { return 0; }
}  // namespace internal

}  // namespace fairhms
