// Incremental skyline maintenance for dynamic datasets.
//
// The paper's pipeline feeds every algorithm from skylines (global for
// unconstrained HMS, per-group unions for FairHMS), which makes skyline
// maintenance the one seam a dynamic-update subsystem has to get right:
// keep those sets exact while tuples churn, without recomputing from
// scratch per mutation.
//
// IncrementalSkyline maintains one exact skyline over one row universe:
//
//   * insert = one dominance sweep over the current skyline — either the
//     new point is dominated (it drops into its dominator's bucket) or it
//     joins the skyline and newly dominated members (plus their whole
//     buckets, by transitivity) move under it;
//   * erase of a dominated point = O(1) bucket removal; erase of a skyline
//     point re-promotes its bucket in coordinate-sum order (a dominator
//     always has a strictly larger sum, so each orphan only needs the
//     already-settled skyline);
//   * past a churn threshold the structure rebuilds itself from a full
//     ComputeSkyline pass, bounding bucket skew from adversarial streams.
//
// The maintained set is bit-identical to ComputeSkyline over the live
// universe after every operation (the skyline of a fixed point set is
// unique; tests/skyline/incremental_test.cc holds this invariant over
// thousands of interleaved ops).
//
// SkylineIndex maintains the global skyline, one skyline per group and the
// live group counts for one (Dataset, Grouping) pair under
// AppendRows/ErasePoints. It hands out the group skylines and the fair
// candidate pool (their union) by value: a session's ArtifactCache copies
// the skyline, pool and counts out of it on a miss (ArtifactCache::
// SetIndex). It keeps no member lists (G-* gathers a group's members only
// when it needs them).

#ifndef FAIRHMS_SKYLINE_INCREMENTAL_H_
#define FAIRHMS_SKYLINE_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "skyline/skyline.h"

namespace fairhms {

struct IncrementalSkylineOptions {
  /// Rebuild the bucket structure from a full ComputeSkyline pass once the
  /// operations since the last rebuild exceed
  /// `churn_rebuild_factor * max(universe_size, 64)`. 0 disables rebuilds.
  double churn_rebuild_factor = 8.0;
  /// Options for full (re)builds.
  SkylineOptions skyline;
};

/// Portable snapshot of one IncrementalSkyline: the maintained skyline plus
/// the dominator assignment of every non-skyline universe member. Enough to
/// reconstruct the structure without a single dominance test — the point of
/// binary snapshot restore (data/snapshot.h) versus a cold rebuild.
struct IncrementalSkylineState {
  std::vector<int> skyline;  ///< Ascending.
  /// (row, dominator) per non-skyline member, ascending by row. The
  /// recorded dominator must be a skyline member; which one is an internal
  /// detail and never affects the maintained set.
  std::vector<std::pair<int, int>> dominated;
};

/// One exact, incrementally maintained skyline over a row universe.
class IncrementalSkyline {
 public:
  explicit IncrementalSkyline(const Dataset* data,
                              IncrementalSkylineOptions opts = {});

  /// Replaces the universe (rows must be live) and rebuilds from scratch.
  void Reset(const std::vector<int>& universe_rows);

  /// Adds `row` (readable in the dataset, not yet in the universe).
  void Insert(int row);

  /// Removes `row` from the universe. Fails when it was never inserted.
  Status Erase(int row) { return EraseBatch({row}); }

  /// Removes several rows. All rows leave the structures before the churn
  /// threshold is consulted, so a triggered rebuild never sees a
  /// half-erased batch (the batch's tombstoned rows must not re-enter the
  /// rebuilt skyline, and a rebuild drops them from the universe for
  /// good).
  Status EraseBatch(const std::vector<int>& rows);

  /// The current skyline, ascending. Bit-identical to
  /// ComputeSkyline(data, universe) at every point in time.
  const std::vector<int>& skyline() const { return sky_; }

  /// Deterministic export of the maintained state (dominated rows sorted
  /// ascending, so two equal structures serialize byte-identically).
  IncrementalSkylineState SaveState() const;

  /// Replaces the structure with a previously exported state without any
  /// dominance computation. Validates cheaply — every row readable and
  /// live, every dominator a skyline member, no duplicates across the
  /// universe — and rejects with InvalidArgument leaving the structure
  /// untouched (geometric consistency is the snapshot checksum's job).
  Status RestoreState(const IncrementalSkylineState& state);

  size_t universe_size() const { return sky_.size() + dominator_.size(); }
  /// Full rebuilds triggered by the churn threshold (telemetry).
  size_t rebuilds() const { return rebuilds_; }

 private:
  /// First skyline member dominating `row`, or -1.
  int FindDominator(const double* p) const;
  /// Removes one row without touching the churn accounting.
  Status EraseOne(int row);
  void MaybeRebuild();
  void Rebuild();

  const Dataset* data_;
  IncrementalSkylineOptions opts_;
  std::vector<int> sky_;  ///< Sorted ascending.
  /// Non-skyline universe member -> the skyline member recorded as its
  /// dominator (any one of them; which one is an internal detail).
  std::unordered_map<int, int> dominator_;
  /// Skyline member -> the members it is recorded as dominating.
  std::unordered_map<int, std::vector<int>> bucket_;
  size_t ops_since_rebuild_ = 0;
  size_t rebuilds_ = 0;
};

/// Portable snapshot of a whole SkylineIndex: the global skyline plus one
/// state per group, in group-id order. Restoring re-derives the live group
/// counts from the Dataset/Grouping pair (cheap, no dominance tests).
struct SkylineIndexState {
  IncrementalSkylineState global;
  std::vector<IncrementalSkylineState> per_group;
};

/// Every skyline-derived artifact of one (Dataset, Grouping) pair, kept
/// current under mutation: global skyline, per-group skylines (hence the
/// fair candidate pool) and the live group counts.
class SkylineIndex {
 public:
  /// Builds from the current live rows. `data` and `grouping` are not
  /// owned and must outlive the index; the caller routes every mutation
  /// through OnAppend/OnErase (SolverSession does this automatically).
  SkylineIndex(const Dataset* data, const Grouping* grouping,
               IncrementalSkylineOptions opts = {});

  /// Deterministic export of the maintained state for snapshotting.
  SkylineIndexState SaveState() const;

  /// Rebuilds an index from an exported state without recomputing any
  /// skyline. Validates that the state's universes exactly cover the live
  /// rows of `data` (globally and per group); InvalidArgument otherwise.
  static StatusOr<std::unique_ptr<SkylineIndex>> Restore(
      const Dataset* data, const Grouping* grouping,
      const SkylineIndexState& state, IncrementalSkylineOptions opts = {});

  /// Rows [first, end) were appended to the dataset and the grouping.
  Status OnAppend(size_t first, size_t end);

  /// `rows` were just tombstoned via Dataset::ErasePoints.
  Status OnErase(const std::vector<int>& rows);

  const std::vector<int>& skyline() const { return global_.skyline(); }
  /// Per-group skylines, indexed by group id (empty for empty groups): a
  /// fresh copy per call.
  std::vector<std::vector<int>> group_skylines() const;
  /// Union of the per-group skylines, ascending (UnionOfGroupSkylines).
  std::vector<int> fair_pool() const;
  /// Live rows per group, like Grouping::LiveCounts.
  const std::vector<int>& live_counts() const { return live_counts_; }

  /// The (Dataset, Grouping) pair the index maintains.
  const Dataset* data() const { return data_; }
  const Grouping* grouping() const { return grouping_; }
  /// Dataset version the index reflects (== data->version() after every
  /// routed mutation).
  uint64_t data_version() const { return data_version_; }
  uint64_t grouping_version() const { return grouping_version_; }
  /// Total churn-threshold rebuilds across all maintained skylines.
  size_t rebuilds() const;

 private:
  /// Tag ctor for Restore: wires the pointers but computes nothing.
  struct RestoreTag {};
  SkylineIndex(RestoreTag, const Dataset* data, const Grouping* grouping,
               IncrementalSkylineOptions opts);

  /// Grows the per-group structures to the grouping's current group count.
  void SyncGroupCount();

  const Dataset* data_;
  const Grouping* grouping_;
  IncrementalSkylineOptions opts_;
  IncrementalSkyline global_;
  std::vector<IncrementalSkyline> per_group_;
  std::vector<int> live_counts_;
  uint64_t data_version_ = 0;
  uint64_t grouping_version_ = 0;
};

}  // namespace fairhms

#endif  // FAIRHMS_SKYLINE_INCREMENTAL_H_
