// Solver: the single programmatic entry point of the FairHMS library.
//
// Build a SolverRequest (dataset + grouping + bounds + algorithm name +
// seed/threads + an AlgoParams bag), call Solver::Solve, get a SolverResult
// (solution rows, per-group counts versus bounds, the algorithm's mhr
// estimate, timings). Algorithm resolution, parameter validation against
// the registered schema and the 2D-projection fallback for exact-2D
// engines all happen here, in one place — the CLI, examples, tests and
// future serving layers are thin wrappers over this facade. (Unconstrained
// baselines look up the global skyline in their own registration,
// algo/group_adapter.h.)
//
//   SolverRequest req;
//   req.data = &data; req.grouping = &groups; req.bounds = bounds;
//   req.algorithm = "bigreedy";
//   auto result = Solver::Solve(req);

#ifndef FAIRHMS_API_SOLVER_H_
#define FAIRHMS_API_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/params.h"
#include "api/registry.h"
#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

/// One solve: what to run, on what, under which constraint.
struct SolverRequest {
  /// The dataset to select from (not owned; must outlive the call). Use
  /// your normalization of choice before solving.
  const Dataset* data = nullptr;
  /// Fairness groups over `data`'s rows (not owned).
  const Grouping* grouping = nullptr;
  /// Per-group bounds; bounds.k is the result size.
  GroupBounds bounds;
  /// Registry name, e.g. "intcov", "bigreedy+", "g_dmm" (see
  /// AlgorithmRegistry::Names() or `fairhms_cli --list_algos`), or
  /// "auto" to let the session's planner (plan/planner.h) choose from the
  /// cost model; the chosen name and prediction are echoed in
  /// SolverResult::plan.
  std::string algorithm;
  /// Seed for every randomized part (direction nets). >= 0.
  uint64_t seed = 42;
  /// Evaluation-engine lanes: 0 = DefaultThreads(), 1 = exact serial path.
  /// Results are bit-identical across thread counts.
  int threads = 0;
  /// Algorithm-specific knobs, validated against the registered schema.
  /// With "auto", validation happens against the planner's choice (and the
  /// planner may fill keys left unset).
  AlgoParams params;
  /// Planner constraints, honored only with algorithm == "auto". 0 = unset.
  double latency_budget_ms = 0.0;
  /// Minimum predicted happiness ratio, only with "auto". 0 = unset.
  double quality_target = 0.0;
  /// Allow warm_startable algorithms to seed from the session's previous
  /// compatible solution (a warm answer is re-certified but can differ
  /// from the cold one; see AlgoCapabilities::warm_startable). One-shot
  /// Solver::Solve calls run in a throwaway session, so this only matters
  /// for held sessions.
  bool allow_warm_start = true;
};

/// The planner's decision for an `algorithm: "auto"` request, echoed next
/// to the result (and over the wire) so callers can compare predicted vs
/// actual cost.
struct SolverPlanEcho {
  bool planned = false;        ///< True iff the request said "auto".
  double predicted_ms = -1.0;  ///< Model prediction; -1 when cold.
  double predicted_hr = -1.0;  ///< Predicted happiness ratio; -1 when cold.
  std::string reason;          ///< Human-readable why (not stable API).
  std::string params;          ///< Params the planner set, "" when none.
};

/// The outcome of a solve, ready for reporting.
struct SolverResult {
  /// Selected rows + the algorithm's own mhr estimate, solve wall-clock and
  /// display name. Benches/CLI re-evaluate mhr with a reference evaluator.
  Solution solution;
  std::string algorithm;          ///< Registry name that ran.
  std::vector<int> group_counts;  ///< Solution members per group.
  GroupBounds bounds;             ///< The constraint that was applied.
  int violations = 0;             ///< CountViolations of the solution.
  /// Caveats, e.g. the exact-2D projection note or the unconstrained-
  /// baseline disclaimer. Empty when none.
  std::string note;
  double solve_ms = 0.0;  ///< Algorithm wall-clock (== solution.elapsed_ms).
  double total_ms = 0.0;  ///< Facade wall-clock incl. skyline/projection.
  /// Planner echo for `algorithm: "auto"` requests (plan.planned == false
  /// otherwise).
  SolverPlanEcho plan;
  /// The solve was warm-started from the session's previous solution (its
  /// rows can differ from the cold solve's; ROADMAP item 2).
  bool warm_start_used = false;
};

/// The facade. Stateless; all methods are safe for concurrent use once
/// static registration has finished (i.e. from main on).
class Solver {
 public:
  /// Validates the request (uniform InvalidArgument messages), resolves the
  /// algorithm via the AlgorithmRegistry, applies the exact-2D projection
  /// fallback as the capabilities demand, runs the algorithm and assembles
  /// the result.
  static StatusOr<SolverResult> Solve(const SolverRequest& request);

  /// Request-shape and parameter-schema validation only (everything
  /// Solve checks before running the algorithm). Useful for admission
  /// control in serving layers.
  static Status Validate(const SolverRequest& request);
};

}  // namespace fairhms

#endif  // FAIRHMS_API_SOLVER_H_
