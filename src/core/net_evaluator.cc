#include "core/net_evaluator.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

constexpr size_t kTile = simd::kDirTile;

size_t TileCount(size_t m) { return (m + kTile - 1) / kTile; }

}  // namespace

NetEvaluator::NetEvaluator(const Dataset* data, const UtilityNet* net,
                           std::vector<int> db_rows, int threads)
    : data_(data),
      net_(net),
      threads_(ResolveThreads(threads)),
      db_rows_(std::move(db_rows)),
      net_cols_(data->dim()) {
  assert(data_->dim() == net_->dim());
  const size_t m = net_->size();
  const size_t d = static_cast<size_t>(data_->dim());
  // Dimension-major net block: column k holds attribute k of every
  // direction, so a direction tile (d * kDirTile doubles) stays L1-resident
  // while candidate rows stream past it.
  net_cols_.Reserve(m);
  for (size_t j = 0; j < m; ++j) net_cols_.Append(net_->vec(j));
  db_pts_ = data_->PackRows(db_rows_);
  best_.assign(m, 0.0);
  // Lanes own disjoint direction tiles (tile boundaries are cache-line
  // aligned in best_, so lanes never share a written line); within a tile
  // every db row streams through the L1-resident columns. max over rows is
  // exact and order-independent, so the fill is bit-identical for any lane
  // count and any dispatch level.
  ParallelFor(threads_, TileCount(m), [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      const size_t j0 = t * kTile;
      const size_t j1 = std::min(m, j0 + kTile);
      simd::NetBestRange(net_cols_.cols(), j0, j1, db_pts_.data(),
                         db_rows_.size(), d, best_.data());
    }
  });
}

double NetEvaluator::PointHappiness(size_t j, int row) const {
  if (best_[j] <= kDegenerate) return 1.0;
  const double s =
      Dot(net_->vec(j), data_->point(static_cast<size_t>(row)),
          static_cast<size_t>(data_->dim()));
  return std::min(1.0, s / best_[j]);
}

void NetEvaluator::PointHappinessRow(int row, double* out) const {
  simd::HappinessRange(net_cols_.cols(), 0, net_->size(),
                       data_->point(static_cast<size_t>(row)),
                       static_cast<size_t>(data_->dim()), best_.data(),
                       kDegenerate, out);
}

double NetEvaluator::Hr(size_t j, const std::vector<int>& rows) const {
  double best = 0.0;
  for (int row : rows) best = std::max(best, PointHappiness(j, row));
  return best;
}

double NetEvaluator::Mhr(const std::vector<int>& rows) const {
  if (rows.empty()) return 0.0;
  const size_t m = net_->size();
  const size_t d = static_cast<size_t>(data_->dim());
  const simd::AlignedVector pts = data_->PackRows(rows);
  // Per tile, MhrRange max-accumulates the raw scores of every row, then
  // divides once per direction: division by a positive denominator is
  // monotone and max selects an element, so this matches the per-row
  // division formulation bit for bit. Each tile writes its own minimum and
  // one exact min merges them, so any lane count gives the serial result.
  // The early break only skips work — a block's remaining tiles keep 1.0,
  // and an mhr of 0 cannot rise.
  std::vector<double> tile_min(TileCount(m), 1.0);
  ParallelFor(threads_, tile_min.size(), [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      const size_t j0 = t * kTile;
      const size_t j1 = std::min(m, j0 + kTile);
      tile_min[t] = simd::MhrRange(net_cols_.cols(), j0, j1, best_.data(),
                                   kDegenerate, pts.data(), rows.size(), d);
      if (tile_min[t] <= 0.0) break;
    }
  });
  double mhr = 1.0;
  for (const double v : tile_min) mhr = std::min(mhr, v);
  return mhr;
}

void NetEvaluator::CacheCandidates(const std::vector<int>& rows,
                                   size_t max_entries) {
  const size_t m = net_->size();
  if (rows.size() * m > max_entries) return;
  const size_t d = static_cast<size_t>(data_->dim());
  cache_offset_.assign(data_->size(), -1);
  // Uninitialized on purpose: the tile loop below writes every cell
  // (tiles cover [0, m), the row loop covers every i).
  cache_.ResizeUninitialized(rows.size() * m);
  for (size_t i = 0; i < rows.size(); ++i) {
    cache_offset_[static_cast<size_t>(rows[i])] =
        static_cast<int64_t>(i * m);
  }
  const simd::AlignedVector pts = data_->PackRows(rows);
  // Direction tiles on the outside so one L1-resident net tile serves every
  // candidate row before the next tile is touched; lanes own disjoint tile
  // ranges, i.e. disjoint column stripes of the matrix.
  ParallelFor(threads_, TileCount(m), [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      const size_t j0 = t * kTile;
      const size_t j1 = std::min(m, j0 + kTile);
      for (size_t i = 0; i < rows.size(); ++i) {
        simd::HappinessRangeUp(net_cols_.cols(), j0, j1, &pts[i * d], d,
                               best_.data(), kDegenerate, &cache_[i * m]);
      }
    }
  });
}

TruncatedMhrState::TruncatedMhrState(const NetEvaluator* eval)
    : eval_(eval), cur_(eval->net_size(), 0.0) {}

void TruncatedMhrState::Reset() { std::fill(cur_.begin(), cur_.end(), 0.0); }

double TruncatedMhrState::MarginalGain(int row, double tau) const {
  const size_t m = cur_.size();
  return simd::TruncGainEval(eval_->net_columns().cols(), m,
                             eval_->data().point(static_cast<size_t>(row)),
                             static_cast<size_t>(eval_->data().dim()),
                             eval_->best_data(), NetEvaluator::kDegenerate,
                             cur_.data(), tau) /
         static_cast<double>(m);
}

double TruncatedMhrState::GainBound(int row, double tau) const {
  const simd::Cell* hrow = eval_->cached_row(row);
  if (hrow == nullptr) return MarginalGain(row, tau);
  // Dividing both sides by the same positive m keeps the bound a bound.
  return simd::TruncGainCached(hrow, cur_.data(), cur_.size(), tau) /
         static_cast<double>(cur_.size());
}

double TruncatedMhrState::GainCap(double tau) const {
  return simd::TruncGainCap(cur_.data(), cur_.size(), tau) /
         static_cast<double>(cur_.size());
}

void TruncatedMhrState::Add(int row) {
  simd::AddHappinessMax(eval_->net_columns().cols(), 0, cur_.size(),
                        eval_->data().point(static_cast<size_t>(row)),
                        static_cast<size_t>(eval_->data().dim()),
                        eval_->best_data(), NetEvaluator::kDegenerate,
                        cur_.data());
}

double TruncatedMhrState::TruncatedValue(double tau) const {
  return simd::TruncSum(cur_.data(), cur_.size(), tau) /
         static_cast<double>(cur_.size());
}

double TruncatedMhrState::NetMhr() const {
  return simd::MinReduce(cur_.data(), cur_.size());
}

}  // namespace fairhms
