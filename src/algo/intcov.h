// IntCov: exact FairHMS on two-dimensional databases (paper Sec. 3).
//
// The decision version ("is there a fair size-k set with mhr >= tau?") is
// reduced to fair interval cover: a point is useful at tau exactly on the
// lambda-interval where its score line clears the tau-envelope; a fair set
// with mhr >= tau exists iff a fair selection of intervals covers [0, 1].
// The decision problem is solved by a dynamic program over per-group
// selection counts. The optimal tau is the largest candidate MHR value the
// decision accepts; the candidates are the single-point happiness at the
// axis utilities plus every pairwise line crossing (Asudeh et al. Thm 2
// guarantees the optimum is among them). IntCov first brackets the optimum
// by a fixed number of bisection steps on tau, then lists only the
// candidates inside the bracket, from the rows whose ratio to the envelope
// can reach its lower end, and binary-searches their ranks, each probe
// placed by rank selection. When rounding leaves the optimum's computed
// value outside the bracket, it searches the full candidate list instead,
// so the answer is the same as a search over all O(n^2) candidates.
//
// Registered in the unified solver registry (api/registry.h) as "intcov";
// prefer Solver::Solve (api/solver.h) over calling IntCov directly — the
// facade applies the 2D-projection fallback for higher-D data.

#ifndef FAIRHMS_ALGO_INTCOV_H_
#define FAIRHMS_ALGO_INTCOV_H_

#include <cstdint>

#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// Tuning knobs for IntCov.
struct IntCovOptions {
  /// Abort when the DP state space prod_c (h_c + 1) exceeds this (the DP is
  /// exponential in the number of groups, as in the paper).
  uint64_t max_states = 50'000'000;
  /// Coverage / eligibility tolerance.
  double tolerance = 1e-9;
  /// Cross-query memoization of the fair pool, skyline and group counts (not
  /// owned; null = compute per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// Runs IntCov. Requires data.dim() == 2. Returns the optimal fair set (its
/// mhr field holds the exact 2D mhr).
StatusOr<Solution> IntCov(const Dataset& data, const Grouping& grouping,
                          const GroupBounds& bounds,
                          const IntCovOptions& opts = {});

namespace internal {

/// IntCov without the bracket: searches the candidates in [floor, 1], listed
/// from the rows that can reach `floor`, and the full candidate list when
/// none of them is accepted. IntCov runs the same search on the bracket's
/// window; tests call this with a floor above the optimum to drive the full
/// relist.
StatusOr<Solution> IntCovAboveFloor(const Dataset& data,
                                    const Grouping& grouping,
                                    const GroupBounds& bounds, double floor,
                                    const IntCovOptions& opts = {});

}  // namespace internal

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_INTCOV_H_
