#include "algo/algo_util.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "geom/vec.h"

namespace fairhms {

StatusOr<ProblemInput> PrepareProblem(const Dataset& data,
                                      const Grouping& grouping,
                                      const GroupBounds& bounds,
                                      ArtifactCache* cache) {
  if (grouping.group_of.size() != data.size()) {
    return Status::InvalidArgument("grouping does not match dataset size");
  }
  if (bounds.num_groups() != grouping.num_groups) {
    return Status::InvalidArgument(
        StrFormat("bounds cover %d groups but grouping has %d",
                  bounds.num_groups(), grouping.num_groups));
  }
  ProblemInput input;
  input.group_counts = *GetOrComputeGroupCounts(cache, data, grouping);
  FAIRHMS_RETURN_IF_ERROR(bounds.Validate(input.group_counts, &grouping.names));

  input.data = &data;
  input.grouping = &grouping;
  input.bounds = bounds;
  input.pool = *GetOrComputeFairPool(cache, data, grouping);
  input.db_rows = *GetOrComputeSkyline(cache, data);
  input.pool_by_group.assign(static_cast<size_t>(grouping.num_groups), {});
  for (int row : input.pool) {
    input.pool_by_group[static_cast<size_t>(
                            grouping.group_of[static_cast<size_t>(row)])]
        .push_back(row);
  }
  return input;
}

void DedupRows(std::vector<int>* rows) {
  std::unordered_set<int> seen;
  std::vector<int> out;
  out.reserve(rows->size());
  for (int r : *rows) {
    if (seen.insert(r).second) out.push_back(r);
  }
  rows->swap(out);
}

void FillBySum(const Dataset& data, std::vector<int> candidates, size_t size,
               std::vector<int>* rows) {
  if (rows->size() >= size) return;
  const size_t d = static_cast<size_t>(data.dim());
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const double sa = SumCoords(data.point(static_cast<size_t>(a)), d);
    const double sb = SumCoords(data.point(static_cast<size_t>(b)), d);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::unordered_set<int> have(rows->begin(), rows->end());
  for (int r : candidates) {
    if (rows->size() >= size) break;
    if (have.insert(r).second) rows->push_back(r);
  }
}

Status PadSolution(const ProblemInput& input, std::vector<int>* solution) {
  DedupRows(solution);
  const Grouping& grouping = *input.grouping;
  const GroupBounds& bounds = input.bounds;
  const Dataset& data = *input.data;
  const int c_num = grouping.num_groups;

  std::vector<int> counts = SolutionGroupCounts(*solution, grouping);
  // If some group exceeds its upper bound the producing algorithm is buggy;
  // report rather than silently drop points.
  for (int c = 0; c < c_num; ++c) {
    if (counts[static_cast<size_t>(c)] > bounds.upper[static_cast<size_t>(c)]) {
      return Status::Internal(
          StrFormat("solution exceeds upper bound for group %d", c));
    }
  }

  // Target counts: start from max(count, lower), then distribute the rest.
  std::vector<int> target(static_cast<size_t>(c_num));
  long long total = 0;
  for (int c = 0; c < c_num; ++c) {
    target[static_cast<size_t>(c)] = std::max(
        counts[static_cast<size_t>(c)], bounds.lower[static_cast<size_t>(c)]);
    total += target[static_cast<size_t>(c)];
  }
  if (total > bounds.k) {
    return Status::Internal("solution cannot be padded within k");
  }
  long long remaining = bounds.k - total;
  for (int c = 0; c < c_num && remaining > 0; ++c) {
    const int cap =
        std::min(bounds.upper[static_cast<size_t>(c)],
                 input.group_counts[static_cast<size_t>(c)]);
    const int take = std::min<long long>(remaining,
                                         cap - target[static_cast<size_t>(c)]);
    if (take > 0) {
      target[static_cast<size_t>(c)] += take;
      remaining -= take;
    }
  }
  if (remaining > 0) {
    return Status::Infeasible("not enough tuples to reach k under bounds");
  }

  // Fill each group to its target: pool members first (they are group
  // skyline points), then, only once those run out, the group's other
  // members, both in FillBySum's order for a deterministic, quality-leaning
  // choice.
  for (int c = 0; c < c_num; ++c) {
    const int need =
        target[static_cast<size_t>(c)] - counts[static_cast<size_t>(c)];
    if (need <= 0) continue;
    const size_t want = solution->size() + static_cast<size_t>(need);
    FillBySum(data, input.pool_by_group[static_cast<size_t>(c)], want,
              solution);
    if (solution->size() < want) {
      // Live members only: padding must never resurrect an erased row.
      FillBySum(data, grouping.MembersLive(data, c), want, solution);
    }
    if (solution->size() < want) {
      return Status::Internal(
          StrFormat("group %d ran out of members while padding", c));
    }
  }
  return Status::OK();
}

}  // namespace fairhms
