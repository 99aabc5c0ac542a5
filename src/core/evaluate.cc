#include "core/evaluate.h"

#include "common/random.h"
#include "core/artifact_cache.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "utility/utility_net.h"

namespace fairhms {

double EvaluateMhr(const Dataset& data, const std::vector<int>& db_rows,
                   const std::vector<int>& solution, const EvalOptions& opts) {
  if (solution.empty() || db_rows.empty()) return 0.0;
  // kAuto falls back from ExactLp to Net above this witness count.
  constexpr size_t kLpWitnessLimit = 4000;
  MhrMethod method = opts.method;
  if (method == MhrMethod::kAuto) {
    if (data.dim() == 2) {
      method = MhrMethod::kExact2D;
    } else if (db_rows.size() <= kLpWitnessLimit) {
      method = MhrMethod::kExactLp;
    } else {
      method = MhrMethod::kNet;
    }
  }
  switch (method) {
    case MhrMethod::kExact2D:
      return MhrExact2D(data, db_rows, solution);
    case MhrMethod::kExactLp:
      return MhrExactLp(data, db_rows, solution, opts.threads);
    case MhrMethod::kNet: {
      Rng rng(opts.seed);
      const std::shared_ptr<const UtilityNet> net =
          GetOrSampleNet(opts.cache, data.dim(), opts.net_size, &rng);
      const std::shared_ptr<const NetEvaluator> eval = GetOrBuildEvaluator(
          opts.cache, data, net, db_rows, {}, opts.threads);
      return eval->Mhr(solution);
    }
    case MhrMethod::kAuto:
      break;  // Unreachable.
  }
  return 0.0;
}

}  // namespace fairhms
