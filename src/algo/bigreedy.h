// BiGreedy / BiGreedy+: bicriteria approximation for FairHMS in any
// dimension (paper Sec. 4).
//
// FairHMS restricted to a delta-net N of m directions is multi-objective
// submodular maximization under the fairness matroid. For a capped value
// tau, the truncated objective mhr_tau(S|N) = (1/m) sum_u min(hr(u,S), tau)
// is monotone submodular; MRGreedy runs up to gamma = ceil(log2(2m/eps))
// matroid-greedy rounds and succeeds when mhr_tau >= (1 - eps/2m) tau. The
// outer loop searches the capped value over the geometric grid
// (1 - eps/2)^j. BiGreedy+ repeats BiGreedy with doubling net sizes until
// the capped value stabilizes (adaptive sampling, Sec. 4.3).
//
// Registered in the unified solver registry (api/registry.h) as "bigreedy"
// and "bigreedy+"; Solver::Solve (api/solver.h) is the stable entry point.

#ifndef FAIRHMS_ALGO_BIGREEDY_H_
#define FAIRHMS_ALGO_BIGREEDY_H_

#include <cstdint>
#include <vector>

#include "algo/algo_util.h"
#include "common/statusor.h"
#include "core/net_evaluator.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

/// How the outer loop visits the capped-value grid.
enum class TauSearch {
  /// Binary search on the grid index (success is monotone in tau in
  /// practice); ~log2(#grid) MRGreedy calls. Default.
  kBinary,
  /// The paper's literal descending scan; identical grid, ~50x more calls.
  kLinear,
};

/// Options shared by BiGreedy and BiGreedy+.
struct BiGreedyOptions {
  /// Net size m. 0 derives the paper's experimental default 10 * k * d.
  size_t net_size = 0;
  /// When > 0 (and net_size == 0), m is derived from this delta via
  /// UtilityNet::DeltaToSampleSize on the (delta / d(2-delta))-net rule.
  double delta = 0.0;
  /// Capped-value search granularity (paper default 0.02).
  double eps = 0.02;
  TauSearch tau_search = TauSearch::kBinary;
  /// Feasible mode (default): only single-round solutions (exactly k rows,
  /// fair) are eligible — the variant used in all of the paper's
  /// experiments. When false, MRGreedy may return the multi-round union of
  /// size <= gamma * k with gamma-scaled bounds (the bicriteria object of
  /// Lemma 4.5).
  bool strict_feasible = true;
  /// Lazy greedy: an upper bound on each candidate's marginal gain (read
  /// from the evaluator's fixed-point candidate cache), refreshed only when
  /// it could rank first and verified with the exact gain before it is
  /// selected. The plain variant re-scans every candidate per insertion,
  /// verifying exactly only those whose bound can beat its running best.
  /// Identical output; kept as an ablation knob.
  bool lazy = true;
  uint64_t seed = 13;
  /// Evaluation-engine lanes for the net denominator precompute, candidate
  /// cache fill and mhr sweeps (0 = DefaultThreads(), 1 = exact serial
  /// path). Selected rows and mhr are bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of nets / evaluators / pools (not owned; null
  /// = build per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
  /// Warm-start hint: the certified capped-value grid index of a previous
  /// compatible solution (-1 = cold). Only honored by the binary tau
  /// search, which walks the grid outward from the hint instead of binary
  /// searching, and a stale hint degrades to the cold search. The walk
  /// re-certifies its own answer but can stop at a different grid index —
  /// and so return other rows — than the cold binary search, because
  /// certification is not monotone in tau (ROADMAP item 2).
  int warm_tau_index = -1;
};

/// Options specific to BiGreedy+.
struct BiGreedyPlusOptions {
  BiGreedyOptions base;
  /// Maximum net size M. 0 derives 10 * k * d.
  size_t max_net_size = 0;
  /// Initial size m0 = max(d + 1, m0_fraction * M) (paper uses 0.05 M).
  double m0_fraction = 0.05;
  /// Stop doubling when tau_{i-1} - tau_i < lambda (paper default 0.04).
  double lambda = 0.04;
};

/// Diagnostics of a single BiGreedy run (exposed for BiGreedy+ and tests).
/// From BiGreedyPlus, the work counters (mrgreedy_calls, bound_rows,
/// exact_gains) sum over every doubling round; the rest describe the
/// round whose solution it returns.
struct BiGreedyRunInfo {
  double tau = 0.0;       ///< Capped value of the returned solution.
  size_t net_size = 0;    ///< m actually used.
  int rounds_used = 0;    ///< Greedy rounds of the returned solution.
  int mrgreedy_calls = 0; ///< Outer-loop decision calls.
  int tau_index = -1;     ///< Certified grid index (-1 = greedy fallback).
  bool warm_start_used = false;  ///< Warm hint accepted; cold search skipped.
  /// Work in the greedy loop over every MRGreedy call and the fallback:
  /// GainBound evaluations (the full passes included) and MarginalGain
  /// evaluations. Deterministic per instance. The seed passes
  /// (NetEvaluator::BuildSeedKeys) run when the evaluator is built, not
  /// in the loop, and are not counted.
  int64_t bound_rows = 0;
  int64_t exact_gains = 0;
};

/// Runs BiGreedy end to end (builds the net internally).
StatusOr<Solution> BiGreedy(const Dataset& data, const Grouping& grouping,
                            const GroupBounds& bounds,
                            const BiGreedyOptions& opts = {},
                            BiGreedyRunInfo* info = nullptr);

/// Runs BiGreedy on a caller-supplied evaluator/net (shared machinery for
/// BiGreedy+, ablations and tests). The evaluator is only read — it may be
/// a shared cross-query artifact.
StatusOr<Solution> BiGreedyOnNet(const ProblemInput& input,
                                 const NetEvaluator* eval,
                                 const BiGreedyOptions& opts,
                                 BiGreedyRunInfo* info = nullptr);

/// Runs BiGreedy+ (adaptive net doubling).
StatusOr<Solution> BiGreedyPlus(const Dataset& data, const Grouping& grouping,
                                const GroupBounds& bounds,
                                const BiGreedyPlusOptions& opts = {},
                                BiGreedyRunInfo* info = nullptr);

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_BIGREEDY_H_
