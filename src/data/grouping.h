// Grouping: a partition of a dataset's rows into C disjoint fairness groups.

#ifndef FAIRHMS_DATA_GROUPING_H_
#define FAIRHMS_DATA_GROUPING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "data/dataset.h"

namespace fairhms {

/// A partition of rows 0..n-1 into groups 0..num_groups-1.
struct Grouping {
  std::vector<int> group_of;       ///< Size n; group id per row.
  int num_groups = 0;
  std::vector<std::string> names;  ///< Size num_groups.
  /// Monotonic mutation counter, bumped by AppendRow/AddGroup. Caches key
  /// grouping-derived artifacts on (address, version).
  uint64_t version = 0;

  /// Number of rows in each group (including erased rows; constraint
  /// building and feasibility checks should use LiveCounts).
  std::vector<int> Counts() const;

  /// Row indices per group (including erased rows).
  std::vector<std::vector<int>> Members() const;

  /// Number of live rows of `data` in each group. Identical to Counts()
  /// while `data` has no tombstones.
  std::vector<int> LiveCounts(const Dataset& data) const;

  /// Live row indices of `data` per group, ascending. Identical to
  /// Members() while `data` has no tombstones.
  std::vector<std::vector<int>> MembersLive(const Dataset& data) const;

  /// Live row indices of `data` in group `group`, ascending: one entry of
  /// MembersLive(data), gathered in one pass over the rows.
  std::vector<int> MembersLive(const Dataset& data, int group) const;

  /// Extends the partition by one row in group `group` (must exist).
  void AppendRow(int group);

  /// Registers a new empty group; returns its id.
  int AddGroup(std::string name);
};

/// Everything in one group (vanilla HMS as the C = 1 special case).
Grouping SingleGroup(size_t n);

/// Groups by one categorical column.
StatusOr<Grouping> GroupByCategorical(const Dataset& data,
                                      const std::string& column);

/// Groups by the cross product of several categorical columns (e.g. the
/// paper's "G+R" = gender x race partitions). Only combinations that occur
/// are materialized.
StatusOr<Grouping> GroupByCategoricalProduct(
    const Dataset& data, const std::vector<std::string>& columns);

/// The paper's synthetic-data scheme: sort rows by the sum of their numeric
/// attributes and split into C equal-sized groups.
Grouping GroupBySumRank(const Dataset& data, int num_groups);

/// The grouping rule of every dataset source (CLI flags, the register op):
/// the categorical product of `*group_by` when given (non-null), otherwise
/// `groups` sum-rank groups, one group being SingleGroup. InvalidArgument
/// unless `groups` is in [1, n].
StatusOr<Grouping> BuildGrouping(const Dataset& data,
                                 const std::vector<std::string>* group_by,
                                 int64_t groups);

}  // namespace fairhms

#endif  // FAIRHMS_DATA_GROUPING_H_
