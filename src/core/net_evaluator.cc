#include "core/net_evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace fairhms {

namespace {

constexpr size_t kTile = simd::kDirTile;

size_t TileCount(size_t m) { return (m + kTile - 1) / kTile; }

}  // namespace

NetEvaluator::NetEvaluator(const Dataset* data, const UtilityNet* net,
                           const std::vector<int>& db_rows, int threads)
    : data_(data), net_(net), threads_(ResolveThreads(threads)) {
  assert(data_->dim() == net_->dim());
  const size_t m = net_->size();
  const size_t d = static_cast<size_t>(data_->dim());
  // The net is dimension-major: column k holds attribute k of every
  // direction, so a direction tile (d * kDirTile doubles) stays L1-resident
  // while the packed db rows stream past it.
  const double* const* net_cols = net_->columns().cols();
  const simd::AlignedVector db_pts = data_->PackRows(db_rows);
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
      simd::NetBestRange(net_cols, j0, j1, db_pts.data(), db_rows.size(), d,
                         best_.data());
    }
  });
}

double NetEvaluator::PointHappiness(size_t j, int row) const {
  if (best_[j] <= kDegenerate) return 1.0;
  const double s = net_->DotWith(j, data_->point(static_cast<size_t>(row)));
  return std::min(1.0, s / best_[j]);
}

void NetEvaluator::PointHappinessRow(int row, double* out) const {
  simd::HappinessRange(net_columns().cols(), 0, net_->size(),
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
      tile_min[t] = simd::MhrRange(net_columns().cols(), j0, j1, best_.data(),
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
        simd::HappinessRangeUp(net_columns().cols(), j0, j1, &pts[i * d], d,
                               best_.data(), kDegenerate, &cache_[i * m]);
      }
    }
  });
}

void NetEvaluator::BuildSeedKeys() {
  const size_t m = net_->size();
  if (cache_.empty()) return;
  const size_t slots = cache_.size() / m;
  std::vector<int> slot_row(slots, -1);  // -1: a slot a duplicate orphaned.
  for (size_t r = 0; r < cache_offset_.size(); ++r) {
    if (cache_offset_[r] >= 0) {
      slot_row[static_cast<size_t>(cache_offset_[r]) / m] =
          static_cast<int>(r);
    }
  }
  // Empty-set keys at tau = 1: each term is the cell's value, a multiple of
  // 2^-15 in [0, 1], so the canonical sum is exact and equals the integer
  // sum of the cells times 2^-15.
  seed_empty_.assign(slots, -1.0);
  ParallelFor(threads_, slots, [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      if (slot_row[s] < 0) continue;
      const simd::Cell* cells = &cache_[s * m];
      uint64_t sum = 0;
      for (size_t j = 0; j < m; ++j) sum += cells[j];
      seed_empty_[s] = static_cast<double>(sum) * simd::kCellUlp /
                       static_cast<double>(m);
    }
  });
  // Plain greedy's tau = 1 first pick: exact gains in falling key order,
  // until no key can beat the best gain found.
  std::vector<size_t> order;
  for (size_t s = 0; s < slots; ++s) {
    if (slot_row[s] >= 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (seed_empty_[a] != seed_empty_[b]) {
      return seed_empty_[a] > seed_empty_[b];
    }
    return slot_row[a] < slot_row[b];
  });
  // (gain, row) beats (best_gain, best_row): larger gain, then smaller row.
  const auto beats = [](double gain, int row, double best_gain,
                        int best_row) {
    return gain > best_gain ||
           (gain == best_gain && best_row >= 0 && row < best_row);
  };
  const TruncatedMhrState empty(this);
  double best_gain = -1.0;
  seed_first_row_ = -1;
  for (const size_t s : order) {
    const int row = slot_row[s];
    if (!beats(seed_empty_[s], row, best_gain, seed_first_row_)) break;
    const double gain = empty.MarginalGain(row, 1.0);
    if (beats(gain, row, best_gain, seed_first_row_)) {
      best_gain = gain;
      seed_first_row_ = row;
    }
  }
  // Keys at tau = 1 after that pick; each lane chunk keeps its own state.
  seed_after_first_.assign(slots, -1.0);
  ParallelFor(threads_, slots, [&](size_t s0, size_t s1) {
    TruncatedMhrState state(this);
    state.Add(seed_first_row_);
    for (size_t s = s0; s < s1; ++s) {
      if (slot_row[s] < 0 || slot_row[s] == seed_first_row_) continue;
      seed_after_first_[s] = state.GainBound(slot_row[s], 1.0);
    }
  });
}

TruncatedMhrState::TruncatedMhrState(const NetEvaluator* eval)
    : eval_(eval), cur_(eval->net_size(), 0.0) {}

void TruncatedMhrState::Reset() {
  std::fill(cur_.begin(), cur_.end(), 0.0);
  live_tau_ = std::numeric_limits<double>::quiet_NaN();
}

simd::QuadList TruncatedMhrState::LiveQuads(double tau) const {
  if (!(tau == live_tau_)) {
    simd::AllQuads(cur_.size(), &live_);
    simd::DropDeadQuads(cur_.data(), tau, &live_);
    live_tau_ = tau;
  }
  return {live_.data(), live_.size()};
}

double TruncatedMhrState::MarginalGain(int row, double tau) const {
  const size_t m = cur_.size();
  return simd::TruncGainEval(eval_->net_columns().cols(), m,
                             eval_->data().point(static_cast<size_t>(row)),
                             static_cast<size_t>(eval_->data().dim()),
                             eval_->best_data(), NetEvaluator::kDegenerate,
                             cur_.data(), tau, LiveQuads(tau)) /
         static_cast<double>(m);
}

double TruncatedMhrState::GainBound(int row, double tau) const {
  const simd::Cell* hrow = eval_->cached_row(row);
  if (hrow == nullptr) return MarginalGain(row, tau);
  // Dividing both sides by the same positive m keeps the bound a bound.
  return simd::TruncGainCached(hrow, cur_.data(), cur_.size(), tau,
                               LiveQuads(tau)) /
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
  if (!std::isnan(live_tau_)) {
    simd::DropDeadQuads(cur_.data(), live_tau_, &live_);
  }
}

double TruncatedMhrState::TruncatedValue(double tau) const {
  return simd::TruncSum(cur_.data(), cur_.size(), tau) /
         static_cast<double>(cur_.size());
}

double TruncatedMhrState::NetMhr() const {
  return simd::MinReduce(cur_.data(), cur_.size());
}

}  // namespace fairhms
