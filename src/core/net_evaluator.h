// Net-based happiness evaluation: happiness ratios measured against a finite
// utility net N instead of the continuous sphere (Lemma 4.1 bounds the gap).

#ifndef FAIRHMS_CORE_NET_EVALUATOR_H_
#define FAIRHMS_CORE_NET_EVALUATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/simd.h"
#include "data/dataset.h"
#include "utility/utility_net.h"

namespace fairhms {

/// Precomputes, per net direction, the best database score (the happiness
/// denominators), and answers hr / mhr queries against the net.
///
/// `db_rows` defines the denominator population — pass the global skyline
/// (scores of dominated points never attain the max, so this is exact).
///
/// Storage is structure-of-arrays: the kernels read the net's own
/// dimension-major ColumnBlock in place (UtilityNet::columns(); the
/// evaluator keeps no copy) and candidate coordinates from dense row-major
/// packs, so the hot loops (denominator fill, candidate-cache fill, mhr
/// sweep) run on the common/simd.h kernel layer in L1-sized direction tiles
/// (simd::kDirTile).
/// Every result is bit-identical across thread counts AND across SIMD
/// dispatch levels (see the bit-identity contract in common/simd.h);
/// threads = 1 takes the exact serial path.
///
/// The optional candidate cache holds each cached row's happiness as
/// 16-bit fixed-point cells rounded up (simd::Cell), a quarter of the
/// bytes of doubles. Its cells are upper bounds, never answers:
/// TruncatedMhrState::GainBound reads them to order the lazy greedy's
/// candidates, and every gain a caller acts on, every Add and every mhr is
/// computed exactly from the coordinates.
class NetEvaluator {
 public:
  /// Degenerate-denominator cutoff: directions whose best database score is
  /// at or below this evaluate to happiness 1.0.
  static constexpr double kDegenerate = 1e-12;

  /// `net` must outlive the evaluator, which reads its directions in
  /// place; `db_rows` is read only here.
  NetEvaluator(const Dataset* data, const UtilityNet* net,
               const std::vector<int>& db_rows, int threads = 0);

  const Dataset& data() const { return *data_; }
  const UtilityNet& net() const { return *net_; }
  size_t net_size() const { return net_->size(); }
  int threads() const { return threads_; }

  /// Best database score for direction j (denominator).
  double best(size_t j) const { return best_[j]; }
  /// Dense denominator array (net_size() doubles).
  const double* best_data() const { return best_.data(); }
  /// Dimension-major net directions: the net's own block (column i holds
  /// attribute i of every direction).
  const simd::ColumnBlock& net_columns() const { return net_->columns(); }

  /// Happiness of a single point under direction j:
  /// <u_j, p> / best(j), clamped to [0, 1]; 1 on degenerate directions.
  double PointHappiness(size_t j, int row) const;

  /// Fills out[0..m) with the exact happiness of `row` under every
  /// direction (computed, never read from the candidate cache).
  void PointHappinessRow(int row, double* out) const;

  /// hr(u_j, S): best happiness among S under direction j (0 if S empty).
  double Hr(size_t j, const std::vector<int>& rows) const;

  /// mhr(S | N): minimum over the net of Hr.
  double Mhr(const std::vector<int>& rows) const;

  /// Optionally caches the happiness rows of the given candidate rows, as
  /// cells rounded up, for O(m) gain bounds inside greedy loops. Caching
  /// is skipped when it would exceed `max_entries` matrix cells.
  void CacheCandidates(const std::vector<int>& rows,
                       size_t max_entries = 40'000'000);

  /// Cached row of `row`, or nullptr when not cached: m cells, cell j
  /// ceil(PointHappiness(j, row) * 2^15). An upper bound per cell, not the
  /// happiness itself.
  const simd::Cell* cached_row(int row) const {
    if (cache_offset_.empty()) return nullptr;
    const int64_t off = cache_offset_[static_cast<size_t>(row)];
    return off < 0 ? nullptr : &cache_[static_cast<size_t>(off)];
  }

  /// Builds the lazy greedy's seed keys over the candidate cache, two
  /// doubles per cached row: its GainBound at tau = 1 on the empty set,
  /// and at tau = 1 right after plain greedy's tau = 1 first pick (the
  /// largest exact gain, smaller row on ties; no matroid). Since a bound
  /// at a larger tau or a smaller set bounds the exact gain below it,
  /// every later greedy over these rows may start from them. Run after
  /// CacheCandidates; a no-op when it cached nothing.
  void BuildSeedKeys();

  /// True when BuildSeedKeys ran over a candidate cache.
  bool has_seed_keys() const { return !seed_empty_.empty(); }

  /// The row whose after-pick keys seed_key_after_first() holds (-1 when
  /// there are no seeds).
  int seed_first_row() const { return seed_first_row_; }

  /// `row`'s empty-set seed key, or -1 when it has none (not cached, or
  /// no seeds). Bit for bit TruncatedMhrState's fresh GainBound(row, 1):
  /// the sum of its cells times 2^-15, exact in any order, over m.
  double seed_key_empty(int row) const { return SeedKey(seed_empty_, row); }

  /// `row`'s seed key after the pick seed_first_row(), or -1 when it has
  /// none (the picked row itself included).
  double seed_key_after_first(int row) const {
    return SeedKey(seed_after_first_, row);
  }

  /// Resident bytes of the candidate cache (0 when CacheCandidates was
  /// never called or declined because of its entry budget).
  size_t CandidateCacheBytes() const {
    return cache_.size() * sizeof(simd::Cell) +
           cache_offset_.size() * sizeof(int64_t);
  }

  /// Bytes of the block the candidate cache holds: CandidateCacheBytes'
  /// cells plus at most an eighth more (simd::ScratchBuffer's close fit).
  size_t CandidateBlockBytes() const {
    return cache_.capacity() * sizeof(simd::Cell);
  }

  /// Total resident bytes: denominators, the candidate cache and its seed
  /// keys. The net is its own cache entry and the db rows are not kept.
  /// ArtifactCache charges this.
  size_t ResidentBytes() const {
    return best_.capacity() * sizeof(double) + CandidateCacheBytes() +
           (seed_empty_.capacity() + seed_after_first_.capacity()) *
               sizeof(double);
  }

 private:
  const Dataset* data_;
  const UtilityNet* net_;
  int threads_;  ///< Effective lane count (already resolved, >= 1).
  simd::AlignedVector best_;
  std::vector<int64_t> cache_offset_;  // Per dataset row; -1 = not cached.
  /// Concatenated rounded-up happiness rows. A pooled ScratchBuffer, not a
  /// vector:
  /// the fill in CacheCandidates writes every cell, so zero-initialization
  /// would only double the memory traffic, and recycling the allocation
  /// across evaluator rebuilds skips the first-touch page faults that
  /// otherwise dominate the fill (see simd.h).
  simd::ScratchBuffer cache_;
  /// Seed keys by cache slot (cache offset / m); empty without seeds.
  std::vector<double> seed_empty_;
  std::vector<double> seed_after_first_;
  int seed_first_row_ = -1;

  double SeedKey(const std::vector<double>& keys, int row) const {
    if (keys.empty()) return -1.0;
    const int64_t off = cache_offset_[static_cast<size_t>(row)];
    return off < 0 ? -1.0
                   : keys[static_cast<size_t>(off) / net_->size()];
  }
};

/// Incremental state for greedy maximization of the truncated MHR
///   mhr_tau(S | N) = (1/m) * sum_j min(hr(u_j, S), tau)
/// (monotone submodular for any cap tau; paper Lemma 4.3).
///
/// Gain and value sums run through the kernel layer's canonical reduction
/// order (common/simd.h), so they are bit-identical across dispatch levels.
/// Gains and bounds visit only the live quads at their tau, the
/// 4-direction groups still holding a direction below it; a dead quad's
/// terms are all +0.0, so leaving it out changes no bit. The list is kept
/// for the last tau asked for, so a state serves one thread at a time.
class TruncatedMhrState {
 public:
  explicit TruncatedMhrState(const NetEvaluator* eval);

  /// Clears back to the empty set.
  void Reset();

  /// Exact mhr_tau gain of adding `row` to the current set, computed from
  /// the coordinates (O(m * d) over the live quads).
  double MarginalGain(int row, double tau) const;

  /// Upper bound on MarginalGain(row, tau): the same gain over the row's
  /// cached cells (O(m) over the live quads, 2 bytes a direction), or the
  /// exact gain when the row is not cached. Like the gain, it never rises
  /// as the set grows.
  double GainBound(int row, double tau) const;

  /// Gain of a point with happiness 1 under every direction: at least
  /// every row's MarginalGain and GainBound at the current set, since both
  /// sum the same terms over happiness cells of at most 1. Allocates
  /// nothing.
  double GainCap(double tau) const;

  /// Commits `row` into the current set (exact happiness) and drops the
  /// quads it makes dead at the tau in use.
  void Add(int row);

  /// Current truncated value mhr_tau(S | N).
  double TruncatedValue(double tau) const;

  /// Current (untruncated) net mhr: min_j hr(u_j, S).
  double NetMhr() const;

 private:
  /// The quads live at `tau`, relisted when tau differs from the last.
  simd::QuadList LiveQuads(double tau) const;

  const NetEvaluator* eval_;
  simd::AlignedVector cur_;  // Best happiness per direction over current S.
  /// The tau live_ lists quads for; NaN: none listed yet.
  mutable double live_tau_ = std::numeric_limits<double>::quiet_NaN();
  mutable std::vector<uint32_t> live_;
};

}  // namespace fairhms

#endif  // FAIRHMS_CORE_NET_EVALUATOR_H_
