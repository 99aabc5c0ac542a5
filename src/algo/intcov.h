// IntCov: exact FairHMS on two-dimensional databases (paper Sec. 3).
//
// The decision version ("is there a fair size-k set with mhr >= tau?") is
// reduced to fair interval cover: a point is useful at tau exactly on the
// lambda-interval where its score line clears the tau-envelope; a fair set
// with mhr >= tau exists iff a fair selection of intervals covers [0, 1].
// The decision problem is solved by a dynamic program over per-group
// selection counts; the optimal tau is found by binary search over the ranks
// of the O(n^2) candidate MHR values (single-point happiness at the axis
// utilities plus every pairwise line crossing — Asudeh et al. Thm 2
// guarantees the optimum is among them), each probe placed by rank
// selection.
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
  /// When the pool would generate more pairwise crossing candidates than
  /// this, fall back to continuous bisection on tau (precision ~1e-12
  /// instead of exact rational candidates; memory stays bounded).
  uint64_t max_pair_candidates = 20'000'000;
  /// Coverage / eligibility tolerance.
  double tolerance = 1e-9;
  /// Lanes for the O(n^2) pairwise candidate enumeration (0 =
  /// DefaultThreads(), 1 = exact serial path). The search selects probes by
  /// rank, which does not depend on the order the lanes emit candidates in,
  /// so the selected rows and mhr are bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of the fair pool, skyline and group counts (not
  /// owned; null = compute per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// Runs IntCov. Requires data.dim() == 2. Returns the optimal fair set (its
/// mhr field holds the exact 2D mhr).
StatusOr<Solution> IntCov(const Dataset& data, const Grouping& grouping,
                          const GroupBounds& bounds,
                          const IntCovOptions& opts = {});

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_INTCOV_H_
