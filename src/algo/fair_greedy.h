// F-Greedy: the matroid-greedy adaptation of RDP-Greedy (paper Sec. 5.1).
//
// Each iteration scores every candidate with its witness LP (max regret if
// that candidate were the best point) and inserts the highest-regret
// candidate whose addition keeps the selection independent in the fairness
// matroid; insertion continues until the selection is a maximal independent
// set (exactly k rows, fair). One LP per skyline item per iteration — the
// cost profile the paper reports (slowest fair baseline).
//
// Registered in the unified solver registry (api/registry.h) as
// "fair_greedy"; Solver::Solve (api/solver.h) is the stable entry point.

#ifndef FAIRHMS_ALGO_FAIR_GREEDY_H_
#define FAIRHMS_ALGO_FAIR_GREEDY_H_

#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// Options for FairGreedy.
struct FairGreedyOptions {
  double regret_tolerance = 1e-9;
  /// Witness-LP lanes (0 = DefaultThreads(), 1 = exact serial path); output
  /// is bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of the fair pool and skyline (not owned; null =
  /// compute per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// Runs F-Greedy; the result is always fair and of size k.
StatusOr<Solution> FairGreedy(const Dataset& data, const Grouping& grouping,
                              const GroupBounds& bounds,
                              const FairGreedyOptions& opts = {});

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_FAIR_GREEDY_H_
