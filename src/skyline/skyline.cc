#include "skyline/skyline.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "common/simd.h"
#include "geom/dominance.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

/// Exact 2D skyline: sort by (x desc, y desc) and sweep with a running max y.
std::vector<int> Skyline2D(const Dataset& data, std::vector<int> rows) {
  std::sort(rows.begin(), rows.end(), [&](int a, int b) {
    const double ax = data.at(static_cast<size_t>(a), 0);
    const double bx = data.at(static_cast<size_t>(b), 0);
    if (ax != bx) return ax > bx;
    const double ay = data.at(static_cast<size_t>(a), 1);
    const double by = data.at(static_cast<size_t>(b), 1);
    if (ay != by) return ay > by;
    return a < b;
  });
  std::vector<int> sky;
  double best_y = -std::numeric_limits<double>::infinity();
  size_t i = 0;
  while (i < rows.size()) {
    const double x = data.at(static_cast<size_t>(rows[i]), 0);
    // Within an equal-x block the sort puts the maximal y first; only points
    // attaining that y can survive (exact duplicates do not dominate each
    // other, so all ties are kept), and only if the y strictly beats every
    // point with larger x.
    const double block_max_y = data.at(static_cast<size_t>(rows[i]), 1);
    size_t j = i;
    if (block_max_y > best_y) {
      while (j < rows.size() &&
             data.at(static_cast<size_t>(rows[j]), 0) == x &&
             data.at(static_cast<size_t>(rows[j]), 1) == block_max_y) {
        sky.push_back(rows[j]);
        ++j;
      }
      best_y = block_max_y;
    }
    while (j < rows.size() && data.at(static_cast<size_t>(rows[j]), 0) == x) {
      ++j;
    }
    i = j;
  }
  std::sort(sky.begin(), sky.end());
  return sky;
}

/// Sum-sorted block-nested-loop over `rows`; exact for any d. Sums come
/// from the SIMD row-sum kernel over a dimension-major pack (same
/// accumulation chain as SumCoords, so the sort order is unchanged), and
/// incremental dominance checks run against a dimension-major block of the
/// growing skyline.
std::vector<int> SkylineBnl(const Dataset& data, std::vector<int> rows) {
  const size_t d = static_cast<size_t>(data.dim());
  const simd::ColumnBlock block = data.PackColumns(rows);
  simd::AlignedVector sums(block.padded_rows(), 0.0);
  simd::RowSums(block.cols(), rows.size(), d, sums.data());
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), static_cast<size_t>(0));
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (sums[a] != sums[b]) return sums[a] > sums[b];
    return rows[a] < rows[b];
  });
  // A dominator always has a strictly larger coordinate sum, so points can
  // only be dominated by earlier entries of the sorted order.
  std::vector<int> sky;
  simd::ColumnBlock sky_block(data.dim());
  for (size_t i : order) {
    const int r = rows[i];
    const double* p = data.point(static_cast<size_t>(r));
    if (!simd::AnyDominates(sky_block.cols(), sky.size(), d, p)) {
      sky.push_back(r);
      sky_block.Append(p);
    }
  }
  std::sort(sky.begin(), sky.end());
  return sky;
}

/// Removes rows dominated by a small elite set (the skyline of a random
/// sample). Returns a superset of the true skyline.
std::vector<int> PrefilterByElite(const Dataset& data, std::vector<int> rows,
                                  const SkylineOptions& opts) {
  if (rows.size() <= opts.prefilter_sample * 2) return rows;
  Rng rng(opts.seed);
  std::vector<int> sample = rows;
  rng.Shuffle(&sample);
  sample.resize(opts.prefilter_sample);
  const std::vector<int> elite = SkylineBnl(data, std::move(sample));
  const size_t d = static_cast<size_t>(data.dim());
  const simd::ColumnBlock elite_block = data.PackColumns(elite);
  std::vector<int> survivors;
  survivors.reserve(rows.size());
  for (int r : rows) {
    const double* p = data.point(static_cast<size_t>(r));
    if (!simd::AnyDominates(elite_block.cols(), elite.size(), d, p)) {
      survivors.push_back(r);
    }
  }
  return survivors;
}

}  // namespace

std::vector<int> ComputeSkyline(const Dataset& data,
                                const std::vector<int>& rows,
                                const SkylineOptions& opts) {
  // Tombstoned rows never participate: an erased dominator must not prune
  // live points, and an erased point must not re-enter a candidate pool.
  std::vector<int> live_rows;
  if (data.has_tombstones()) {
    live_rows.reserve(rows.size());
    for (int r : rows) {
      if (data.live(static_cast<size_t>(r))) live_rows.push_back(r);
    }
  }
  const std::vector<int>& input = data.has_tombstones() ? live_rows : rows;
  if (input.empty()) return {};
  if (data.dim() == 2) return Skyline2D(data, input);
  return SkylineBnl(data, PrefilterByElite(data, input, opts));
}

std::vector<int> ComputeSkyline(const Dataset& data,
                                const SkylineOptions& opts) {
  std::vector<int> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  return ComputeSkyline(data, rows, opts);
}

std::vector<std::vector<int>> ComputeGroupSkylines(const Dataset& data,
                                                   const Grouping& grouping,
                                                   const SkylineOptions& opts) {
  assert(grouping.group_of.size() == data.size());
  std::vector<std::vector<int>> result;
  result.reserve(static_cast<size_t>(grouping.num_groups));
  for (const auto& members : grouping.Members()) {
    result.push_back(ComputeSkyline(data, members, opts));
  }
  return result;
}

std::vector<int> UnionOfGroupSkylines(
    const std::vector<std::vector<int>>& group_skylines) {
  std::vector<int> pool;
  for (const auto& sky : group_skylines) {
    pool.insert(pool.end(), sky.begin(), sky.end());
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

std::vector<int> ComputeFairCandidatePool(const Dataset& data,
                                          const Grouping& grouping,
                                          const SkylineOptions& opts) {
  return UnionOfGroupSkylines(ComputeGroupSkylines(data, grouping, opts));
}

}  // namespace fairhms
