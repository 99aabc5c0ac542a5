#include <algorithm>
#include <cmath>

#include "algo/baselines.h"
#include "algo/group_adapter.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/net_evaluator.h"
#include "geom/vec.h"
#include "utility/utility_net.h"

namespace fairhms {

StatusOr<std::vector<int>> SphereRows(const Dataset& data,
                                      const std::vector<int>& rows, int k,
                                      const SphereOptions& opts) {
  if (rows.empty()) return Status::InvalidArgument("empty candidate set");
  const int d = data.dim();
  if (k < d) {
    // The original Sphere seeds with the d per-dimension extremes and cannot
    // produce smaller solutions; the paper omits its bars in this regime.
    return Status::InvalidArgument(
        StrFormat("Sphere requires k >= d (k=%d, d=%d)", k, d));
  }

  // Phase 1: the "boundary" points — best in each dimension.
  std::vector<int> solution;
  for (int j = 0; j < d; ++j) {
    int best = rows.front();
    for (int r : rows) {
      if (data.at(static_cast<size_t>(r), j) >
          data.at(static_cast<size_t>(best), j)) {
        best = r;
      }
    }
    if (std::find(solution.begin(), solution.end(), best) == solution.end()) {
      solution.push_back(best);
    }
  }

  // Phase 2: repeatedly serve the worst-covered sampled direction with its
  // best available point.
  const size_t m = opts.net_size > 0
                       ? opts.net_size
                       : static_cast<size_t>(10) * k * d;
  Rng rng(opts.seed);
  const std::shared_ptr<const UtilityNet> net =
      GetOrSampleNet(opts.cache, d, m, &rng);
  const std::shared_ptr<const NetEvaluator> eval_ptr =
      GetOrBuildEvaluator(opts.cache, data, net, rows, {}, opts.threads);
  const NetEvaluator& eval = *eval_ptr;

  std::vector<double> cur(m, 0.0);
  for (int r : solution) {
    for (size_t j = 0; j < m; ++j) {
      cur[j] = std::max(cur[j], eval.PointHappiness(j, r));
    }
  }
  std::vector<bool> exhausted(m, false);
  const int target = std::min<int>(k, static_cast<int>(rows.size()));
  while (static_cast<int>(solution.size()) < target) {
    // Worst-served direction that can still improve.
    int worst = -1;
    double worst_hr = 2.0;
    for (size_t j = 0; j < m; ++j) {
      if (!exhausted[j] && cur[j] < worst_hr) {
        worst_hr = cur[j];
        worst = static_cast<int>(j);
      }
    }
    if (worst < 0) break;
    // Best point for that direction not already selected.
    int best = -1;
    double best_h = -1.0;
    for (int r : rows) {
      if (std::find(solution.begin(), solution.end(), r) != solution.end()) {
        continue;
      }
      const double h = eval.PointHappiness(static_cast<size_t>(worst), r);
      if (h > best_h) {
        best_h = h;
        best = r;
      }
    }
    if (best < 0 || best_h <= worst_hr + 1e-12) {
      exhausted[static_cast<size_t>(worst)] = true;
      continue;
    }
    solution.push_back(best);
    for (size_t j = 0; j < m; ++j) {
      cur[j] = std::max(cur[j], eval.PointHappiness(j, best));
    }
  }

  std::sort(solution.begin(), solution.end());
  return solution;
}

namespace {

const BaselineRegistrar sphere_registrar([] {
  BaselineSpec spec;
  spec.name = "sphere";
  spec.g_name = "g_sphere";
  spec.display_name = "Sphere";
  spec.summary =
      "Sphere baseline: dimension extremes + worst-served sampled "
      "directions (unconstrained; needs k >= d)";
  spec.g_summary =
      "Sphere run per group and unioned (fair by quotas; needs every "
      "per-group quota >= d)";
  spec.randomized = true;
  spec.params = {
      {"net_size", ParamType::kInt, "sampled direction count",
       "auto (10*k*d)", 1, static_cast<double>(UtilityNet::kMaxSize), false,
       false, {}},
  };
  spec.make_solver = [](const SolveContext& ctx) -> BaseSolver {
    SphereOptions opts;
    opts.net_size = static_cast<size_t>(
        ctx.params->IntOr("net_size", static_cast<int64_t>(opts.net_size)));
    opts.seed = ctx.seed;
    opts.threads = ctx.threads;
    opts.cache = ctx.cache;
    return [opts](const Dataset& d, const std::vector<int>& rows, int k) {
      return SphereRows(d, rows, k, opts);
    };
  };
  return spec;
}());

}  // namespace

namespace internal {
int LinkAlgoSphere() { return 0; }
}  // namespace internal

}  // namespace fairhms
