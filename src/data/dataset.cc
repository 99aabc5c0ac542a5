#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace fairhms {

Dataset::Dataset(int dim) : dim_(dim) {
  assert(dim >= 1);
  attr_names_.reserve(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) {
    attr_names_.push_back(StrFormat("attr%d", j));
  }
}

Dataset::Dataset(std::vector<std::string> attr_names)
    : dim_(static_cast<int>(attr_names.size())),
      attr_names_(std::move(attr_names)) {
  assert(dim_ >= 1);
}

void Dataset::Reserve(size_t n) {
  values_.reserve(n * static_cast<size_t>(dim_));
  for (auto& c : cats_) c.codes.reserve(n);
}

void Dataset::AddPoint(const std::vector<double>& coords) {
  assert(static_cast<int>(coords.size()) == dim_);
  values_.insert(values_.end(), coords.begin(), coords.end());
  for (auto& c : cats_) c.codes.push_back(0);
  if (!dead_.empty()) dead_.push_back(0);
  ++n_;
  ++live_count_;
  ++version_;
}

void Dataset::AddRow(const std::vector<double>& coords,
                     const std::vector<int>& codes) {
  assert(static_cast<int>(coords.size()) == dim_);
  assert(codes.size() == cats_.size());
  values_.insert(values_.end(), coords.begin(), coords.end());
  for (size_t c = 0; c < cats_.size(); ++c) cats_[c].codes.push_back(codes[c]);
  if (!dead_.empty()) dead_.push_back(0);
  ++n_;
  ++live_count_;
  ++version_;
}

int Dataset::AddCategoricalColumn(std::string name,
                                  std::vector<std::string> labels) {
  CategoricalColumn col;
  col.name = std::move(name);
  col.labels = std::move(labels);
  col.codes.assign(n_, 0);
  cats_.push_back(std::move(col));
  ++version_;
  return static_cast<int>(cats_.size()) - 1;
}

int Dataset::AddCategoricalLabel(int c, std::string label) {
  auto& labels = cats_[static_cast<size_t>(c)].labels;
  labels.push_back(std::move(label));
  ++version_;
  return static_cast<int>(labels.size()) - 1;
}

StatusOr<int> Dataset::AppendRows(
    const std::vector<std::vector<double>>& coords,
    const std::vector<std::vector<int>>& codes) {
  if (coords.empty()) {
    return Status::InvalidArgument("AppendRows needs at least one row");
  }
  if (codes.size() != coords.size()) {
    return Status::InvalidArgument(
        StrFormat("AppendRows got %zu coordinate rows but %zu code rows",
                  coords.size(), codes.size()));
  }
  // Validate everything up front so a bad row leaves the table untouched.
  for (size_t r = 0; r < coords.size(); ++r) {
    if (static_cast<int>(coords[r].size()) != dim_) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu coordinates but the dataset is %d-d", r,
                    coords[r].size(), dim_));
    }
    for (int j = 0; j < dim_; ++j) {
      const double v = coords[r][static_cast<size_t>(j)];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("non-finite value at appended row %zu attr %d", r, j));
      }
      if (v < 0.0) {
        return Status::InvalidArgument(StrFormat(
            "negative value %g at appended row %zu attr %d (FairHMS assumes "
            "nonnegative attributes)",
            v, r, j));
      }
    }
    if (codes[r].size() != cats_.size()) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu categorical codes but the dataset has "
                    "%zu categorical columns",
                    r, codes[r].size(), cats_.size()));
    }
    for (size_t c = 0; c < cats_.size(); ++c) {
      const int code = codes[r][c];
      if (code < 0 || static_cast<size_t>(code) >= cats_[c].labels.size()) {
        return Status::InvalidArgument(
            StrFormat("row %zu: code %d out of range for column '%s'", r,
                      code, cats_[c].name.c_str()));
      }
    }
  }
  const int first = static_cast<int>(n_);
  for (size_t r = 0; r < coords.size(); ++r) {
    values_.insert(values_.end(), coords[r].begin(), coords[r].end());
    for (size_t c = 0; c < cats_.size(); ++c) {
      cats_[c].codes.push_back(codes[r][c]);
    }
    if (!dead_.empty()) dead_.push_back(0);
  }
  n_ += coords.size();
  live_count_ += coords.size();
  ++version_;
  return first;
}

Status Dataset::ErasePoints(const std::vector<int>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("ErasePoints needs at least one row");
  }
  std::vector<uint8_t> marked(n_, 0);
  for (int r : rows) {
    if (r < 0 || static_cast<size_t>(r) >= n_) {
      return Status::OutOfRange(
          StrFormat("cannot erase row %d of a %zu-row dataset", r, n_));
    }
    if (!live(static_cast<size_t>(r))) {
      return Status::InvalidArgument(
          StrFormat("row %d is already erased", r));
    }
    if (marked[static_cast<size_t>(r)]) {
      return Status::InvalidArgument(
          StrFormat("row %d listed twice in ErasePoints", r));
    }
    marked[static_cast<size_t>(r)] = 1;
  }
  if (dead_.empty()) dead_.assign(n_, 0);
  for (int r : rows) dead_[static_cast<size_t>(r)] = 1;
  live_count_ -= rows.size();
  ++version_;
  return Status::OK();
}

std::vector<int> Dataset::LiveRows() const {
  std::vector<int> rows;
  rows.reserve(live_count_);
  for (size_t i = 0; i < n_; ++i) {
    if (live(i)) rows.push_back(static_cast<int>(i));
  }
  return rows;
}

StatusOr<int> Dataset::FindCategorical(const std::string& name) const {
  for (size_t c = 0; c < cats_.size(); ++c) {
    if (cats_[c].name == name) return static_cast<int>(c);
  }
  return Status::NotFound("no categorical column named '" + name + "'");
}

Status Dataset::Validate() const {
  for (size_t i = 0; i < n_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      const double v = at(i, j);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("non-finite value at row %zu attr %d", i, j));
      }
      if (v < 0.0) {
        return Status::InvalidArgument(
            StrFormat("negative value %g at row %zu attr %d (FairHMS assumes "
                      "nonnegative attributes; normalize first)",
                      v, i, j));
      }
    }
  }
  for (const auto& c : cats_) {
    if (c.codes.size() != n_) {
      return Status::Internal("categorical column '" + c.name +
                              "' has wrong length");
    }
    for (int code : c.codes) {
      if (code < 0 || static_cast<size_t>(code) >= c.labels.size()) {
        return Status::InvalidArgument("categorical code out of range in '" +
                                       c.name + "'");
      }
    }
  }
  return Status::OK();
}

namespace {

// Attribute-wise min and max over the live rows only, so erased outliers
// cannot skew the scaling. One row-major pass folding from +/-inf with
// std::min/std::max: on a +/-0.0 tie the first-seen value wins. With no
// live rows lo stays +inf and hi -inf, which both callers map to their
// constant-column value.
void LiveBounds(const Dataset& data, std::vector<double>* lo,
                std::vector<double>* hi) {
  const size_t d = static_cast<size_t>(data.dim());
  lo->assign(d, std::numeric_limits<double>::infinity());
  hi->assign(d, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < data.size(); ++i) {
    if (!data.live(i)) continue;
    const double* p = data.point(i);
    for (size_t j = 0; j < d; ++j) {
      (*lo)[j] = std::min((*lo)[j], p[j]);
      (*hi)[j] = std::max((*hi)[j], p[j]);
    }
  }
}

}  // namespace

// Erased rows are rescaled with everything else in both normalizations:
// their values are never read, but stay finite.
Dataset Dataset::NormalizedMinMax() const {
  std::vector<double> lo, hi;
  LiveBounds(*this, &lo, &hi);
  Dataset out = *this;
  const size_t d = static_cast<size_t>(dim_);
  for (size_t i = 0; i < n_; ++i) {
    double* p = &out.values_[i * d];
    for (size_t j = 0; j < d; ++j) {
      const double span = hi[j] - lo[j];
      p[j] = span > 0 ? (p[j] - lo[j]) / span : 1.0;
    }
  }
  return out;
}

Dataset Dataset::ScaledByMax() const {
  std::vector<double> lo, hi;
  LiveBounds(*this, &lo, &hi);
  Dataset out = *this;
  const size_t d = static_cast<size_t>(dim_);
  for (size_t i = 0; i < n_; ++i) {
    double* p = &out.values_[i * d];
    for (size_t j = 0; j < d; ++j) p[j] = hi[j] > 0 ? p[j] / hi[j] : 0.0;
  }
  return out;
}

simd::ColumnBlock Dataset::PackColumns(const std::vector<int>& rows) const {
  simd::ColumnBlock block(dim_);
  block.ResizeRows(rows.size());
  std::vector<double*> dst(static_cast<size_t>(dim_));
  for (size_t j = 0; j < dst.size(); ++j) {
    dst[j] = block.mutable_col(static_cast<int>(j));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* p = point(static_cast<size_t>(rows[i]));
    for (size_t j = 0; j < dst.size(); ++j) dst[j][i] = p[j];
  }
  return block;
}

simd::AlignedVector Dataset::PackRows(const std::vector<int>& rows) const {
  const size_t d = static_cast<size_t>(dim_);
  simd::AlignedVector pts(rows.size() * d);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* p = point(static_cast<size_t>(rows[i]));
    std::copy(p, p + d, pts.begin() + static_cast<int64_t>(i * d));
  }
  return pts;
}

size_t Dataset::CoordBytes() const {
  size_t bytes = values_.capacity() * sizeof(double) +
                 dead_.capacity() * sizeof(uint8_t);
  for (const CategoricalColumn& c : cats_) {
    bytes += c.codes.capacity() * sizeof(int);
  }
  return bytes;
}

Dataset Dataset::Project2D() const {
  assert(dim_ >= 2);
  Dataset out(std::vector<std::string>{attr_names_[0], attr_names_[1]});
  out.values_.reserve(n_ * 2);
  for (size_t i = 0; i < n_; ++i) {
    const double* p = point(i);
    out.values_.push_back(p[0]);
    out.values_.push_back(p[1]);
  }
  out.n_ = n_;
  out.live_count_ = live_count_;
  out.dead_ = dead_;
  out.version_ = version_;
  return out;
}

}  // namespace fairhms
