#include "algo/group_adapter.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "algo/algo_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/evaluate.h"

namespace fairhms {

StatusOr<Solution> GroupAdapt(const BaseSolver& solver,
                              const std::string& name, const Dataset& data,
                              const Grouping& grouping,
                              const GroupBounds& bounds,
                              const GroupAdapterOptions& opts) {
  Stopwatch timer;
  // The pool regrouped is each group's ascending skyline; the global
  // skyline evaluates the union.
  FAIRHMS_ASSIGN_OR_RETURN(const ProblemInput input,
                           PrepareProblem(data, grouping, bounds, opts.cache));

  // Quotas proportional to group sizes, capped by what each group holds.
  std::vector<double> weights(input.group_counts.begin(),
                              input.group_counts.end());
  FAIRHMS_ASSIGN_OR_RETURN(
      std::vector<int> quotas,
      AllocateQuotas(bounds, weights, input.group_counts));

  Solution out;
  for (int c = 0; c < grouping.num_groups; ++c) {
    const int kc = quotas[static_cast<size_t>(c)];
    if (kc == 0) continue;
    // Candidates: the group skyline, widened to the group's live members
    // (gathered here, the only reader) when the skyline alone cannot fill
    // the quota.
    const std::vector<int>& skyline_c =
        input.pool_by_group[static_cast<size_t>(c)];
    auto sub = static_cast<int>(skyline_c.size()) >= kc
                   ? solver(data, skyline_c, kc)
                   : solver(data, grouping.MembersLive(data, c), kc);
    if (!sub.ok()) {
      return Status(sub.status().code(),
                    StrFormat("G-%s failed on group %d: %s", name.c_str(), c,
                              sub.status().message().c_str()));
    }
    out.rows.insert(out.rows.end(), sub->begin(), sub->end());
  }

  std::sort(out.rows.begin(), out.rows.end());
  EvalOptions eval_opts;
  eval_opts.threads = opts.threads;
  eval_opts.cache = opts.cache;
  out.mhr = EvaluateMhr(data, input.db_rows, out.rows, eval_opts);
  out.elapsed_ms = timer.ElapsedMillis();
  out.algorithm = "G-" + name;
  return out;
}

BaselineRegistrar::BaselineRegistrar(const BaselineSpec& spec) {
  AlgorithmInfo plain;
  plain.name = spec.name;
  plain.display_name = spec.display_name;
  plain.summary = spec.summary;
  plain.caps.randomized = spec.randomized;
  plain.params = spec.params;
  AlgorithmInfo adapted = plain;

  plain.solve = [make = spec.make_solver](
                    const SolveContext& ctx) -> StatusOr<Solution> {
    const BaseSolver solver = make(ctx);
    const std::shared_ptr<const std::vector<int>> skyline =
        GetOrComputeSkyline(ctx.cache, *ctx.data);
    Stopwatch timer;
    Solution out;
    FAIRHMS_ASSIGN_OR_RETURN(out.rows,
                             solver(*ctx.data, *skyline, ctx.bounds->k));
    EvalOptions eval_opts;
    eval_opts.threads = ctx.threads;
    eval_opts.cache = ctx.cache;
    out.mhr = EvaluateMhr(*ctx.data, *skyline, out.rows, eval_opts);
    out.elapsed_ms = timer.ElapsedMillis();
    return out;
  };

  adapted.name = spec.g_name;
  adapted.display_name = "G-" + spec.display_name;
  adapted.summary = spec.g_summary;
  adapted.caps.fairness_aware = true;
  adapted.solve = [make = spec.make_solver,
                   name = spec.display_name](const SolveContext& ctx) {
    GroupAdapterOptions opts;
    opts.threads = ctx.threads;
    opts.cache = ctx.cache;
    return GroupAdapt(make(ctx), name, *ctx.data, *ctx.grouping, *ctx.bounds,
                      opts);
  };

  const AlgorithmRegistrar plain_registrar(std::move(plain));
  const AlgorithmRegistrar adapted_registrar(std::move(adapted));
}

}  // namespace fairhms
