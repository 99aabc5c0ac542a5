#include "skyline/incremental.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"
#include "geom/dominance.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

/// Inserts `value` into sorted `v` (keeps ascending order).
void InsertSorted(std::vector<int>* v, int value) {
  v->insert(std::lower_bound(v->begin(), v->end(), value), value);
}

/// Removes `value` from sorted `v`; returns false when absent.
bool RemoveSorted(std::vector<int>* v, int value) {
  auto it = std::lower_bound(v->begin(), v->end(), value);
  if (it == v->end() || *it != value) return false;
  v->erase(it);
  return true;
}

}  // namespace

IncrementalSkyline::IncrementalSkyline(const Dataset* data,
                                       IncrementalSkylineOptions opts)
    : data_(data), opts_(opts) {
  assert(data_ != nullptr);
}

void IncrementalSkyline::Reset(const std::vector<int>& universe_rows) {
  sky_ = ComputeSkyline(*data_, universe_rows, opts_.skyline);
  dominator_.clear();
  bucket_.clear();
  const size_t d = static_cast<size_t>(data_->dim());
  for (int r : universe_rows) {
    // Tombstoned rows are not part of any universe (ComputeSkyline already
    // excluded them from sky_).
    if (!data_->live(static_cast<size_t>(r))) continue;
    if (std::binary_search(sky_.begin(), sky_.end(), r)) continue;
    // Every non-skyline member has a dominator; record the first found.
    const double* p = data_->point(static_cast<size_t>(r));
    int dom = -1;
    for (int s : sky_) {
      if (Dominates(data_->point(static_cast<size_t>(s)), p, d)) {
        dom = s;
        break;
      }
    }
    assert(dom >= 0);
    dominator_[r] = dom;
    bucket_[dom].push_back(r);
  }
  ops_since_rebuild_ = 0;
}

int IncrementalSkyline::FindDominator(const double* p) const {
  const size_t d = static_cast<size_t>(data_->dim());
  for (int s : sky_) {
    if (Dominates(data_->point(static_cast<size_t>(s)), p, d)) return s;
  }
  return -1;
}

void IncrementalSkyline::Insert(int row) {
  const size_t d = static_cast<size_t>(data_->dim());
  const double* p = data_->point(static_cast<size_t>(row));
  // One sweep: either some skyline member dominates the new point (then no
  // member can be dominated by it — both at once would put a dominance
  // pair inside the skyline), or we collect everything it knocks out.
  int dominator = -1;
  std::vector<int> killed;
  for (int s : sky_) {
    const double* ps = data_->point(static_cast<size_t>(s));
    if (Dominates(ps, p, d)) {
      dominator = s;
      break;
    }
    if (Dominates(p, ps, d)) killed.push_back(s);
  }
  if (dominator >= 0) {
    dominator_[row] = dominator;
    bucket_[dominator].push_back(row);
  } else {
    std::vector<int>& own = bucket_[row];
    for (int s : killed) {
      RemoveSorted(&sky_, s);
      // p dominates s dominates m => p dominates m: the whole bucket moves.
      if (auto it = bucket_.find(s); it != bucket_.end()) {
        for (int m : it->second) {
          dominator_[m] = row;
          own.push_back(m);
        }
        bucket_.erase(it);
      }
      dominator_[s] = row;
      own.push_back(s);
    }
    if (own.empty()) bucket_.erase(row);
    InsertSorted(&sky_, row);
  }
  ++ops_since_rebuild_;
  MaybeRebuild();
}

Status IncrementalSkyline::EraseBatch(const std::vector<int>& rows) {
  for (int row : rows) {
    FAIRHMS_RETURN_IF_ERROR(EraseOne(row));
  }
  ops_since_rebuild_ += rows.size();
  MaybeRebuild();
  return Status::OK();
}

Status IncrementalSkyline::EraseOne(int row) {
  if (auto dit = dominator_.find(row); dit != dominator_.end()) {
    std::vector<int>& b = bucket_[dit->second];
    b.erase(std::find(b.begin(), b.end(), row));
    if (b.empty()) bucket_.erase(dit->second);
    dominator_.erase(dit);
  } else if (std::binary_search(sky_.begin(), sky_.end(), row)) {
    RemoveSorted(&sky_, row);
    std::vector<int> orphans;
    if (auto it = bucket_.find(row); it != bucket_.end()) {
      orphans = std::move(it->second);
      bucket_.erase(it);
    }
    for (int m : orphans) dominator_.erase(m);
    // Re-promote in coordinate-sum order: a dominator has a strictly
    // larger sum, so by the time an orphan is examined every point that
    // could dominate it — surviving skyline member or earlier orphan — is
    // already settled in sky_.
    const size_t d = static_cast<size_t>(data_->dim());
    std::sort(orphans.begin(), orphans.end(), [&](int a, int b) {
      const double sa = SumCoords(data_->point(static_cast<size_t>(a)), d);
      const double sb = SumCoords(data_->point(static_cast<size_t>(b)), d);
      if (sa != sb) return sa > sb;
      return a < b;
    });
    for (int m : orphans) {
      const int dom = FindDominator(data_->point(static_cast<size_t>(m)));
      if (dom >= 0) {
        dominator_[m] = dom;
        bucket_[dom].push_back(m);
      } else {
        InsertSorted(&sky_, m);
      }
    }
  } else {
    return Status::NotFound(
        StrFormat("row %d is not in this skyline's universe", row));
  }
  return Status::OK();
}

IncrementalSkylineState IncrementalSkyline::SaveState() const {
  IncrementalSkylineState state;
  state.skyline = sky_;
  state.dominated.reserve(dominator_.size());
  for (const auto& [row, dom] : dominator_) {
    state.dominated.emplace_back(row, dom);
  }
  std::sort(state.dominated.begin(), state.dominated.end());
  return state;
}

Status IncrementalSkyline::RestoreState(const IncrementalSkylineState& state) {
  // Build into locals first so a rejected state leaves *this untouched.
  const size_t n = data_->size();
  std::vector<char> seen(n, 0);
  auto claim_row = [&](int r) -> Status {
    if (r < 0 || static_cast<size_t>(r) >= n) {
      return Status::InvalidArgument(
          StrFormat("skyline state row %d out of range (table size %zu)", r,
                    n));
    }
    if (!data_->live(static_cast<size_t>(r))) {
      return Status::InvalidArgument(
          StrFormat("skyline state row %d is tombstoned", r));
    }
    if (seen[static_cast<size_t>(r)]) {
      return Status::InvalidArgument(
          StrFormat("skyline state row %d appears twice", r));
    }
    seen[static_cast<size_t>(r)] = 1;
    return Status::OK();
  };
  for (size_t i = 0; i < state.skyline.size(); ++i) {
    FAIRHMS_RETURN_IF_ERROR(claim_row(state.skyline[i]));
    if (i > 0 && state.skyline[i - 1] >= state.skyline[i]) {
      return Status::InvalidArgument(
          "skyline state members not sorted ascending");
    }
  }
  std::unordered_map<int, int> dominator;
  std::unordered_map<int, std::vector<int>> bucket;
  dominator.reserve(state.dominated.size());
  for (const auto& [row, dom] : state.dominated) {
    FAIRHMS_RETURN_IF_ERROR(claim_row(row));
    if (!std::binary_search(state.skyline.begin(), state.skyline.end(), dom)) {
      return Status::InvalidArgument(StrFormat(
          "dominator %d of row %d is not a skyline member", dom, row));
    }
    dominator[row] = dom;
    bucket[dom].push_back(row);
  }
  sky_ = state.skyline;
  dominator_ = std::move(dominator);
  bucket_ = std::move(bucket);
  ops_since_rebuild_ = 0;
  return Status::OK();
}

void IncrementalSkyline::MaybeRebuild() {
  if (opts_.churn_rebuild_factor <= 0.0) return;
  const double threshold =
      opts_.churn_rebuild_factor *
      static_cast<double>(std::max<size_t>(universe_size(), 64));
  if (static_cast<double>(ops_since_rebuild_) > threshold) Rebuild();
}

void IncrementalSkyline::Rebuild() {
  std::vector<int> universe;
  universe.reserve(universe_size());
  universe.insert(universe.end(), sky_.begin(), sky_.end());
  for (const auto& [row, dom] : dominator_) {
    (void)dom;
    universe.push_back(row);
  }
  std::sort(universe.begin(), universe.end());
  Reset(universe);
  ++rebuilds_;
}

SkylineIndex::SkylineIndex(const Dataset* data, const Grouping* grouping,
                           IncrementalSkylineOptions opts)
    : data_(data), grouping_(grouping), opts_(opts), global_(data, opts) {
  assert(data_ != nullptr && grouping_ != nullptr);
  assert(grouping_->group_of.size() == data_->size());
  global_.Reset(data_->LiveRows());
  for (const std::vector<int>& members : grouping_->MembersLive(*data_)) {
    per_group_.emplace_back(data_, opts_);
    per_group_.back().Reset(members);
    live_counts_.push_back(static_cast<int>(members.size()));
  }
  data_version_ = data_->version();
  grouping_version_ = grouping_->version;
}

SkylineIndex::SkylineIndex(RestoreTag, const Dataset* data,
                           const Grouping* grouping,
                           IncrementalSkylineOptions opts)
    : data_(data), grouping_(grouping), opts_(opts), global_(data, opts) {}

SkylineIndexState SkylineIndex::SaveState() const {
  SkylineIndexState state;
  state.global = global_.SaveState();
  state.per_group.reserve(per_group_.size());
  for (const auto& g : per_group_) state.per_group.push_back(g.SaveState());
  return state;
}

StatusOr<std::unique_ptr<SkylineIndex>> SkylineIndex::Restore(
    const Dataset* data, const Grouping* grouping,
    const SkylineIndexState& state, IncrementalSkylineOptions opts) {
  if (data == nullptr || grouping == nullptr) {
    return Status::InvalidArgument(
        "SkylineIndex::Restore requires a dataset and a grouping");
  }
  if (grouping->group_of.size() != data->size()) {
    return Status::InvalidArgument(
        StrFormat("grouping covers %zu rows, dataset has %zu",
                  grouping->group_of.size(), data->size()));
  }
  if (state.per_group.size() != static_cast<size_t>(grouping->num_groups)) {
    return Status::InvalidArgument(
        StrFormat("snapshot carries %zu group skylines, grouping has %d groups",
                  state.per_group.size(), grouping->num_groups));
  }
  auto index = std::unique_ptr<SkylineIndex>(
      new SkylineIndex(RestoreTag{}, data, grouping, opts));
  FAIRHMS_RETURN_IF_ERROR(index->global_.RestoreState(state.global));
  // Each restored universe holds unique live rows, so an exact size match
  // against the live tables means exact coverage.
  const size_t live_total = data->LiveRows().size();
  if (index->global_.universe_size() != live_total) {
    return Status::InvalidArgument(
        StrFormat("global skyline state covers %zu rows, dataset has %zu live",
                  index->global_.universe_size(), live_total));
  }
  index->live_counts_ = grouping->LiveCounts(*data);
  for (int c = 0; c < grouping->num_groups; ++c) {
    const size_t ci = static_cast<size_t>(c);
    // Rows are checked live and unique by RestoreState, so a group match
    // plus an exact count match means exact coverage of the live members.
    auto in_group = [&](int r) -> Status {
      if (r < 0 || static_cast<size_t>(r) >= grouping->group_of.size() ||
          grouping->group_of[static_cast<size_t>(r)] != c) {
        return Status::InvalidArgument(StrFormat(
            "group %d skyline state claims row %d of another group", c, r));
      }
      return Status::OK();
    };
    for (int r : state.per_group[ci].skyline) {
      FAIRHMS_RETURN_IF_ERROR(in_group(r));
    }
    for (const auto& [row, dom] : state.per_group[ci].dominated) {
      (void)dom;
      FAIRHMS_RETURN_IF_ERROR(in_group(row));
    }
    index->per_group_.emplace_back(data, opts);
    FAIRHMS_RETURN_IF_ERROR(
        index->per_group_.back().RestoreState(state.per_group[ci]));
    const size_t group_size = static_cast<size_t>(index->live_counts_[ci]);
    if (index->per_group_.back().universe_size() != group_size) {
      return Status::InvalidArgument(
          StrFormat("group %d skyline state covers %zu rows, group has %zu "
                    "live members",
                    c, index->per_group_.back().universe_size(),
                    group_size));
    }
  }
  index->data_version_ = data->version();
  index->grouping_version_ = grouping->version;
  return index;
}

void SkylineIndex::SyncGroupCount() {
  while (per_group_.size() < static_cast<size_t>(grouping_->num_groups)) {
    per_group_.emplace_back(data_, opts_);
    live_counts_.push_back(0);
  }
}

Status SkylineIndex::OnAppend(size_t first, size_t end) {
  if (end > data_->size() || end > grouping_->group_of.size()) {
    return Status::InvalidArgument(
        StrFormat("OnAppend range [%zu, %zu) exceeds the table", first, end));
  }
  SyncGroupCount();
  for (size_t i = first; i < end; ++i) {
    if (!data_->live(i)) continue;
    const int g = grouping_->group_of[i];
    if (g < 0 || static_cast<size_t>(g) >= per_group_.size()) {
      return Status::Internal(
          StrFormat("appended row %zu has group %d out of range", i, g));
    }
    const int row = static_cast<int>(i);
    global_.Insert(row);
    per_group_[static_cast<size_t>(g)].Insert(row);
    ++live_counts_[static_cast<size_t>(g)];
  }
  data_version_ = data_->version();
  grouping_version_ = grouping_->version;
  return Status::OK();
}

Status SkylineIndex::OnErase(const std::vector<int>& rows) {
  // Partition by group first, then erase whole batches: a churn-triggered
  // rebuild inside a maintainer must never run while some of the batch's
  // (already tombstoned) rows are still in its universe.
  std::vector<std::vector<int>> by_group(per_group_.size());
  for (int r : rows) {
    if (r < 0 || static_cast<size_t>(r) >= grouping_->group_of.size()) {
      return Status::OutOfRange(StrFormat("erased row %d out of range", r));
    }
    const int g = grouping_->group_of[static_cast<size_t>(r)];
    by_group[static_cast<size_t>(g)].push_back(r);
  }
  FAIRHMS_RETURN_IF_ERROR(global_.EraseBatch(rows));
  for (size_t g = 0; g < by_group.size(); ++g) {
    if (by_group[g].empty()) continue;
    FAIRHMS_RETURN_IF_ERROR(per_group_[g].EraseBatch(by_group[g]));
    live_counts_[g] -= static_cast<int>(by_group[g].size());
  }
  data_version_ = data_->version();
  return Status::OK();
}

std::vector<std::vector<int>> SkylineIndex::group_skylines() const {
  std::vector<std::vector<int>> skylines;
  skylines.reserve(per_group_.size());
  for (const auto& g : per_group_) skylines.push_back(g.skyline());
  return skylines;
}

std::vector<int> SkylineIndex::fair_pool() const {
  return UnionOfGroupSkylines(group_skylines());
}

size_t SkylineIndex::rebuilds() const {
  size_t total = global_.rebuilds();
  for (const auto& g : per_group_) total += g.rebuilds();
  return total;
}

}  // namespace fairhms
