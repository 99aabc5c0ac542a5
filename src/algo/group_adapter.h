// G-adapter: turns any fairness-unaware HMS baseline into a fair algorithm
// by running one instance per group and unioning the results (the paper's
// "G-" prefix: G-Greedy, G-DMM, G-Sphere, G-HS).
//
// Per-group budgets k_c are allocated within [l_c, h_c] proportionally to
// group sizes (sum k_c = k), each instance runs on its group's skyline (its
// share of the fair candidate pool) with group-local happiness
// denominators, and the union is returned. The
// adaptation inherits the paper's caveat: per-group selections are mutually
// redundant, so the union's global MHR trails the native fair algorithms.
//
// Each baseline .cc registers itself once, through a BaselineRegistrar: one
// spec becomes the plain registry entry ("rdp_greedy", "dmm", "sphere",
// "hs": run on the global skyline, violations reported) and the adapted
// one ("g_greedy", "g_dmm", "g_sphere", "g_hs").

#ifndef FAIRHMS_ALGO_GROUP_ADAPTER_H_
#define FAIRHMS_ALGO_GROUP_ADAPTER_H_

#include <functional>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// A fairness-unaware HMS solver's rows: (data, candidate rows, k) ->
/// selected rows (e.g. RdpGreedyRows; algo/baselines.h).
using BaseSolver = std::function<StatusOr<std::vector<int>>(
    const Dataset&, const std::vector<int>&, int)>;

/// Options for GroupAdapt.
struct GroupAdapterOptions {
  /// Lanes for the final MHR evaluation against the global skyline (0 =
  /// DefaultThreads(), 1 = exact serial path). The per-group solvers carry
  /// their own threads knobs.
  int threads = 0;
  /// Cross-query memoization of group counts, the fair pool, the global
  /// skyline and the final evaluation net (not owned; null = compute per
  /// call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// Runs `solver` once per group with quota k_c and unions the solutions.
/// Fails if quota allocation fails or any per-group run fails (e.g. Sphere
/// with h_c < d, DMM out of memory) — matching the missing bars in the
/// paper's plots.
StatusOr<Solution> GroupAdapt(const BaseSolver& solver,
                              const std::string& name, const Dataset& data,
                              const Grouping& grouping,
                              const GroupBounds& bounds,
                              const GroupAdapterOptions& opts = {});

/// One prior-art baseline as the registry sees it (algo/baselines.h).
struct BaselineSpec {
  std::string name;          ///< Plain registry name, e.g. "rdp_greedy".
  std::string g_name;        ///< Adapted registry name, e.g. "g_greedy".
  std::string display_name;  ///< e.g. "Greedy"; the adapted one is "G-Greedy".
  std::string summary;       ///< --list_algos line of the plain entry.
  std::string g_summary;     ///< --list_algos line of the adapted entry.
  bool randomized = false;   ///< AlgoCapabilities::randomized of both.
  std::vector<ParamSpec> params;  ///< Schema of both entries.
  /// Binds the context's params, seed, threads and cache into the
  /// baseline's rows function.
  std::function<BaseSolver(const SolveContext&)> make_solver;
};

/// Registers both entries of `spec` at static initialization:
///   * the plain one solves on GetOrComputeSkyline(ctx.cache, *ctx.data),
///     timed after that lookup; its mhr is EvaluateMhr over that skyline
///     with the context's threads and cache — the reference value the
///     service reports as happiness_ratio;
///   * the adapted one (fairness_aware) runs GroupAdapt.
/// Aborts on registration errors, as AlgorithmRegistrar does.
class BaselineRegistrar {
 public:
  explicit BaselineRegistrar(const BaselineSpec& spec);
};

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_GROUP_ADAPTER_H_
