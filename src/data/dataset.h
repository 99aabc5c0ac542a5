// Dataset: n points with d nonnegative numeric attributes plus any number
// of categorical (demographic) columns. Coordinates live in one flat
// row-major store (`point(i)` reads a row in one cache line), because every
// algorithm and kernel scores a tuple at a time. Kernels that want another
// shape gather it: PackColumns() builds a dimension-major block for the
// dominance/sum kernels, PackRows() a dense row block for the net kernels;
// with LiveRows() they give live views that skip tombstones.
//
// Numeric attributes drive scoring; categorical columns define the fairness
// groups (see data/grouping.h). Algorithms reference points by row index so
// that solutions remain meaningful against the original table.
//
// Mutation model: storage is append-only. AppendRows adds rows at the end,
// ErasePoints tombstones existing rows (coords stay addressable so solved
// row indices keep their meaning; the rows just leave every live view).
// Every mutation bumps version(), which artifact caches use to detect
// staleness without comparing contents.

#ifndef FAIRHMS_DATA_DATASET_H_
#define FAIRHMS_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "common/statusor.h"

namespace fairhms {

/// A categorical column: per-row integer codes plus human-readable labels.
struct CategoricalColumn {
  std::string name;
  std::vector<int> codes;           ///< Size n; values in [0, labels.size()).
  std::vector<std::string> labels;  ///< Code -> display name.
};

/// In-memory table of points. Copyable; cheap moves.
class Dataset {
 public:
  /// Creates an empty dataset with `dim` numeric attributes (dim >= 1).
  explicit Dataset(int dim);

  /// Creates with explicit attribute names (dim = names.size()).
  explicit Dataset(std::vector<std::string> attr_names);

  /// Pre-allocates storage for n rows.
  void Reserve(size_t n);

  /// Appends a row; `coords` must hold exactly dim() values. Categorical
  /// codes for existing columns must be appended separately via
  /// AppendCategorical (or use AddRow).
  void AddPoint(const std::vector<double>& coords);

  /// Appends a row together with codes for every categorical column
  /// (codes.size() must equal num_categorical()).
  void AddRow(const std::vector<double>& coords, const std::vector<int>& codes);

  /// Declares a categorical column. Must be called before rows carry codes
  /// for it; existing rows receive code 0.
  /// Returns the column's index.
  int AddCategoricalColumn(std::string name, std::vector<std::string> labels);

  /// Appends a label to categorical column `c` and returns its code. The
  /// caller is responsible for not duplicating an existing label (lazy
  /// label registration for streaming readers).
  int AddCategoricalLabel(int c, std::string label);

  /// Appends a batch of rows (each with codes for every categorical column)
  /// after validating shape, finiteness/nonnegativity and code ranges.
  /// Returns the index of the first appended row; on error nothing is
  /// appended. One version bump per call.
  StatusOr<int> AppendRows(const std::vector<std::vector<double>>& coords,
                           const std::vector<std::vector<int>>& codes);

  /// Tombstones the given live rows. Fails (appending nothing) when a row is
  /// out of range, already erased, or listed twice. One version bump per
  /// call. Erased rows keep their coordinates addressable — previously
  /// returned solutions stay meaningful — but disappear from every live
  /// view (LiveRows, skylines, group tables, happiness denominators).
  Status ErasePoints(const std::vector<int>& rows);

  /// True iff row i has not been erased.
  bool live(size_t i) const { return dead_.empty() || dead_[i] == 0; }
  /// True iff any row has ever been erased.
  bool has_tombstones() const { return live_count_ < n_; }
  /// Number of live (non-erased) rows.
  size_t live_size() const { return live_count_; }
  /// Ascending indices of every live row.
  std::vector<int> LiveRows() const;

  /// Monotonically increasing mutation counter (every AddPoint/AddRow/
  /// AppendRows/ErasePoints/column change bumps it). Two reads returning
  /// the same version saw the same table.
  uint64_t version() const { return version_; }

  /// Snapshot-restore hook (data/snapshot.cc): overwrites the mutation
  /// counter so a restored table reports the version it was snapshotted
  /// at, keeping version-keyed artifacts comparable across a restart.
  /// Never call this on a table that any session or cache has seen.
  void set_version(uint64_t v) { version_ = v; }

  size_t size() const { return n_; }
  int dim() const { return dim_; }

  /// Resident bytes of the per-row storage: the row-major coordinate
  /// store, each categorical column's per-row code (label index) vector
  /// and the tombstone flags, by allocated capacity. Labels and attribute
  /// names are per-column, not per-row, and are not counted.
  size_t CoordBytes() const;

  /// Pointer to row i's numeric attributes (dim() doubles).
  const double* point(size_t i) const { return &values_[i * static_cast<size_t>(dim_)]; }
  double at(size_t i, int j) const { return values_[i * static_cast<size_t>(dim_) + static_cast<size_t>(j)]; }

  /// Gathers the given rows into a fresh dimension-major block (padded,
  /// aligned) for the SIMD dominance/sum kernels. Row order is preserved:
  /// block row i is dataset row rows[i].
  simd::ColumnBlock PackColumns(const std::vector<int>& rows) const;

  /// Gathers the given rows into a dense row-major block (rows.size() * dim
  /// doubles) for kernels that stream points against net columns.
  simd::AlignedVector PackRows(const std::vector<int>& rows) const;

  const std::vector<std::string>& attr_names() const { return attr_names_; }

  int num_categorical() const { return static_cast<int>(cats_.size()); }
  const CategoricalColumn& categorical(int c) const { return cats_[static_cast<size_t>(c)]; }
  /// Finds a categorical column by name.
  StatusOr<int> FindCategorical(const std::string& name) const;

  /// Validates that every numeric value is finite and nonnegative and all
  /// categorical codes are within range.
  Status Validate() const;

  /// Returns a copy with every numeric attribute min-max scaled to [0, 1]
  /// (the paper's normalization; larger preferred). Constant columns map
  /// to 1.0 so that they never dominate the happiness ratio artificially.
  Dataset NormalizedMinMax() const;

  /// Returns a copy with every numeric attribute divided by its maximum
  /// (scale-invariant alternative normalization). Nonpositive-max columns
  /// map to 0.
  Dataset ScaledByMax() const;

  /// Returns the first two attributes of every row (dim() >= 2). Row
  /// indices, tombstones and version() carry over, so the projection's live
  /// view and cache keys follow this table's.
  Dataset Project2D() const;

 private:
  int dim_;
  size_t n_ = 0;
  size_t live_count_ = 0;
  uint64_t version_ = 0;
  std::vector<double> values_;  ///< Row-major, size() * dim() doubles.
  std::vector<uint8_t> dead_;   ///< Tombstones; empty until the first erase.
  std::vector<std::string> attr_names_;
  std::vector<CategoricalColumn> cats_;
};

}  // namespace fairhms

#endif  // FAIRHMS_DATA_DATASET_H_
