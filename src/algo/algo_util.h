// Shared preprocessing and post-processing for FairHMS algorithms.

#ifndef FAIRHMS_ALGO_ALGO_UTIL_H_
#define FAIRHMS_ALGO_ALGO_UTIL_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// Preprocessed FairHMS instance shared by all algorithms.
struct ProblemInput {
  const Dataset* data = nullptr;
  const Grouping* grouping = nullptr;
  GroupBounds bounds;
  /// Candidate rows: the union of per-group skylines.
  std::vector<int> pool;
  /// Candidate rows split by group.
  std::vector<std::vector<int>> pool_by_group;
  /// Rows defining happiness denominators: the global skyline.
  std::vector<int> db_rows;
  /// Live rows per group (grouping.LiveCounts(*data)).
  std::vector<int> group_counts;
};

/// Validates the instance and fills the pool (the fair candidate pool), the
/// denominator rows (the global skyline) and the live group counts; a
/// non-null `cache` memoizes all three across queries (bit-identical either
/// way).
StatusOr<ProblemInput> PrepareProblem(const Dataset& data,
                                      const Grouping& grouping,
                                      const GroupBounds& bounds,
                                      ArtifactCache* cache = nullptr);

/// Extends `solution` (deduplicated) to exactly bounds.k rows satisfying the
/// group bounds, drawing first from the pool and then, only for a group whose
/// pool rows run out, from its other live members.
/// Padding never decreases mhr. Fails only when the instance itself is
/// infeasible.
Status PadSolution(const ProblemInput& input, std::vector<int>* solution);

/// Appends the rows of `candidates` that `*rows` lacks, by descending
/// attribute sum with ties to the smaller row, until `*rows` holds `size`
/// rows or the candidates run out: the one order every "pad with the best
/// unused rows" step uses.
void FillBySum(const Dataset& data, std::vector<int> candidates, size_t size,
               std::vector<int>* rows);

/// Greedy set cover of the directions in `uncovered`: up to `k` times,
/// picks the candidate in [0, num_candidates) that `covers` the most
/// still-uncovered directions (the first such candidate on ties), until
/// none is left uncovered. Returns the picked candidates in pick order, or
/// empty when some direction stays uncovered. `covers(candidate,
/// direction)` is a template parameter so the inner test stays inlined.
template <class Covers>
std::vector<int> GreedyCover(size_t num_candidates, std::vector<int> uncovered,
                             int k, const Covers& covers) {
  std::vector<int> picked;
  while (!uncovered.empty() && static_cast<int>(picked.size()) < k) {
    size_t best = 0;
    size_t best_cnt = 0;
    for (size_t i = 0; i < num_candidates; ++i) {
      size_t cnt = 0;
      for (int j : uncovered) {
        if (covers(i, j)) ++cnt;
      }
      if (cnt > best_cnt) {
        best_cnt = cnt;
        best = i;
      }
    }
    if (best_cnt == 0) return {};  // Some direction is unreachable.
    picked.push_back(static_cast<int>(best));
    size_t w = 0;
    for (int j : uncovered) {
      if (!covers(best, j)) uncovered[w++] = j;
    }
    uncovered.resize(w);
  }
  return uncovered.empty() ? picked : std::vector<int>{};
}

/// Removes duplicate rows, preserving first occurrence order.
void DedupRows(std::vector<int>* rows);

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_ALGO_UTIL_H_
