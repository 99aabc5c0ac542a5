// Skyline (Pareto-maxima) computation.
//
// The paper pre-computes skylines as the input to every algorithm: for
// unconstrained HMS the global skyline suffices, while under group fairness
// the candidate pool is the union of *per-group* skylines (a point dominated
// globally can still be its group's best choice. Table 2's "#skylines"
// column is exactly this union's size).

#ifndef FAIRHMS_SKYLINE_SKYLINE_H_
#define FAIRHMS_SKYLINE_SKYLINE_H_

#include <vector>

#include "data/dataset.h"
#include "data/grouping.h"

namespace fairhms {

/// Options for skyline computation.
struct SkylineOptions {
  /// Sample size of the elite prefilter (d >= 3 only).
  size_t prefilter_sample = 2048;
  /// Deterministic seed for the prefilter sample.
  uint64_t seed = 0x5EEDu;
};

/// Skyline of the rows in `rows` (indices into `data`). Output is sorted
/// ascending. Exact O(n log n) sweep for d = 2; sum-sorted block-nested-loop
/// with sample prefilter for d >= 3.
std::vector<int> ComputeSkyline(const Dataset& data,
                                const std::vector<int>& rows,
                                const SkylineOptions& opts = {});

/// Skyline of the whole dataset.
std::vector<int> ComputeSkyline(const Dataset& data,
                                const SkylineOptions& opts = {});

/// Per-group skylines, indexed by group id.
std::vector<std::vector<int>> ComputeGroupSkylines(
    const Dataset& data, const Grouping& grouping,
    const SkylineOptions& opts = {});

/// Union of per-group skylines (disjoint, as groups are), sorted ascending:
/// the fair candidate pool. ComputeFairCandidatePool and SkylineIndex both
/// assemble their pool here.
std::vector<int> UnionOfGroupSkylines(
    const std::vector<std::vector<int>>& group_skylines);

/// Union of the per-group skylines, sorted ascending — the fair candidate
/// pool used by every FairHMS algorithm.
std::vector<int> ComputeFairCandidatePool(const Dataset& data,
                                          const Grouping& grouping,
                                          const SkylineOptions& opts = {});

}  // namespace fairhms

#endif  // FAIRHMS_SKYLINE_SKYLINE_H_
