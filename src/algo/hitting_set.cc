#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "algo/algo_util.h"
#include "algo/baselines.h"
#include "algo/group_adapter.h"
#include "common/random.h"
#include "core/artifact_cache.h"
#include "core/net_evaluator.h"
#include "utility/utility_net.h"

namespace fairhms {

StatusOr<std::vector<int>> HittingSetRows(const Dataset& data,
                                          const std::vector<int>& rows, int k,
                                          const HittingSetOptions& opts) {
  if (rows.empty()) return Status::InvalidArgument("empty candidate set");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int d = data.dim();
  // Lazy constraint generation starts from kInitialDirections validation
  // directions and adds at most kViolationsPerRound violated ones a round;
  // tau is bisected kBinarySearchSteps times when tau = 1 is infeasible.
  constexpr size_t kInitialDirections = 64;
  constexpr size_t kViolationsPerRound = 32;
  constexpr int kBinarySearchSteps = 24;

  const size_t m_val = opts.validation_net_size > 0
                           ? opts.validation_net_size
                           : static_cast<size_t>(20) * k * d;
  Rng rng(opts.seed);
  // Denominators over the sub-database come from the (possibly shared)
  // evaluator; its precompute is bit-identical across thread counts.
  const std::shared_ptr<const UtilityNet> net =
      GetOrSampleNet(opts.cache, d, m_val, &rng);
  const std::shared_ptr<const NetEvaluator> eval_ptr =
      GetOrBuildEvaluator(opts.cache, data, net, rows, {}, opts.threads);
  const NetEvaluator& eval = *eval_ptr;

  // Greedy cover of the working direction set at threshold tau; empty result
  // = more than k points needed.
  auto cover = [&](const std::vector<int>& dirs,
                   double tau) -> std::vector<int> {
    std::vector<int> picked =
        GreedyCover(rows.size(), dirs, k, [&](size_t i, int j) {
          return eval.PointHappiness(static_cast<size_t>(j), rows[i]) >= tau;
        });
    for (int& i : picked) i = rows[static_cast<size_t>(i)];
    return picked;
  };

  // Lazy constraint generation: certify tau against the full validation net,
  // growing the working set with violated directions.
  auto feasible = [&](double tau, std::vector<int>* out) -> bool {
    std::vector<int> working;
    working.reserve(kInitialDirections);
    for (size_t j = 0; j < std::min(kInitialDirections, m_val); ++j) {
      working.push_back(static_cast<int>(j));
    }
    std::vector<bool> in_working(m_val, false);
    for (int j : working) in_working[static_cast<size_t>(j)] = true;

    for (int round = 0; round < opts.max_rounds; ++round) {
      std::vector<int> picked = cover(working, tau);
      if (picked.empty()) return false;
      // Validate on the full net.
      size_t added = 0;
      for (size_t j = 0; j < m_val && added < kViolationsPerRound; ++j) {
        if (in_working[j]) continue;
        double best_h = 0.0;
        for (int r : picked) {
          best_h = std::max(best_h, eval.PointHappiness(j, r));
          if (best_h >= tau) break;
        }
        if (best_h < tau) {
          working.push_back(static_cast<int>(j));
          in_working[j] = true;
          ++added;
        }
      }
      if (added == 0) {
        *out = std::move(picked);
        return true;
      }
    }
    return false;
  };

  // Binary search on tau.
  std::vector<int> best_rows;
  double lo = 0.0;
  double hi = 1.0;
  std::vector<int> sol;
  if (feasible(1.0, &sol)) {
    best_rows = sol;
  } else {
    for (int it = 0; it < kBinarySearchSteps; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (feasible(mid, &sol)) {
        best_rows = sol;
        lo = mid;
      } else {
        hi = mid;
      }
    }
    if (best_rows.empty()) {
      best_rows.push_back(rows.front());
    }
  }

  // Pad to k with the best unused rows by attribute sum.
  FillBySum(data, rows, static_cast<size_t>(k), &best_rows);

  std::sort(best_rows.begin(), best_rows.end());
  return best_rows;
}

namespace {

const BaselineRegistrar hs_registrar([] {
  BaselineSpec spec;
  spec.name = "hs";
  spec.g_name = "g_hs";
  spec.display_name = "HS";
  spec.summary =
      "lazy hitting-set baseline: threshold + greedy cover with constraint "
      "generation (unconstrained, memory-light)";
  spec.g_summary = "HS run per group and unioned (fair by quotas)";
  spec.randomized = true;
  spec.params = {
      {"net_size", ParamType::kInt, "validation direction-net size",
       "auto (20*k*d)", 1, static_cast<double>(UtilityNet::kMaxSize), false,
       false, {}},
      {"max_rounds", ParamType::kInt,
       "lazy constraint-generation round limit", "64", 1,
       static_cast<double>(std::numeric_limits<int>::max()), false, false,
       {}},
  };
  spec.make_solver = [](const SolveContext& ctx) -> BaseSolver {
    HittingSetOptions opts;
    opts.validation_net_size = static_cast<size_t>(ctx.params->IntOr(
        "net_size", static_cast<int64_t>(opts.validation_net_size)));
    opts.max_rounds =
        static_cast<int>(ctx.params->IntOr("max_rounds", opts.max_rounds));
    opts.seed = ctx.seed;
    opts.threads = ctx.threads;
    opts.cache = ctx.cache;
    return [opts](const Dataset& d, const std::vector<int>& rows, int k) {
      return HittingSetRows(d, rows, k, opts);
    };
  };
  return spec;
}());

}  // namespace

namespace internal {
int LinkAlgoHittingSet() { return 0; }
}  // namespace internal

}  // namespace fairhms
