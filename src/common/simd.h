// Vectorized happiness kernels with runtime CPU dispatch.
//
// This is the data-parallel floor of the evaluation stack: a
// structure-of-arrays block type (`ColumnBlock`) plus flat-range kernels
// over it (dot/max/min reductions, truncated-gain sums, Pareto-dominance
// tests). Every kernel is written once, in simd_kernels.h: a scalar
// reference plus one body over GCC/Clang vector extensions at two widths.
// Level names: "scalar" is the reference; "sse2" and "neon" are the body at
// W = 2 on x86-64 and aarch64 (simd.cc, baseline ISA); "avx2" is W = 4
// (simd_avx2.cc, -mavx2). The widest level the host runs is selected once
// at startup by CPU detection (`DispatchLevel`). A TU compiled with ISA
// flags gives everything it compiles internal linkage (see
// simd_kernels.h), so none of its code can stand in for baseline code.
//
// Bit-identity contract
// ---------------------
// All implementations of a kernel produce *bitwise identical* results on
// the same inputs. This is what lets the determinism, warm-vs-cold and
// serve-replay suites pass regardless of the host CPU or the
// `FAIRHMS_SIMD` setting. It is achieved by construction, not tolerance:
//
//  * Per-element kernels vectorize across independent outputs (one net
//    direction per SIMD lane); each lane evaluates the exact scalar
//    expression chain, so lane width cannot change results.
//  * Dot products accumulate over dimensions sequentially per lane —
//    the same chain as `Dot()` in geom/vec.h.
//  * min/max are independent of order and tie choice for the value domain
//    (finite, non-NaN, and sums of non-negative products are never -0.0).
//  * Sum reductions (`TruncGain*`, `TruncSum`) use one fixed reduction
//    order on every path: four virtual accumulator lanes striped
//    j % 4, combined as (p0 + p1) + (p2 + p3), with the tail (n % 4)
//    added sequentially afterwards. A W-lane body keeps 4 / W vector
//    accumulators; the scalar path simulates the same four lanes.
//  * The truncated-gain sums visit only the quads (4-direction groups
//    below n & ~3) their `QuadList` names, in ascending order; the tail
//    is always summed. Leaving out a dead quad, one whose four directions
//    all have cur[j] >= tau, changes no bit: each of its terms is
//    min(max(c, h), tau) - min(c, tau) = tau - tau = +0.0, and adding +0.0
//    to a lane changes it only when the lane is -0.0, which a lane never
//    is (it starts at +0.0 and only adds terms >= +0.0). So every lane,
//    the combine and the tail match the all-quads sum bit for bit.
//  * The cache fill (`HappinessRangeUp`) stores each happiness h as the
//    16-bit fixed-point cell ceil(h * 2^15) (see `Cell`). Scaling by a
//    power of two, truncation of a value in [0, 2^15] and int -> double
//    are all exact, so every level computes the same integer: scalar and
//    W = 2 truncate, then add one where the truncation fell below
//    h * 2^15; W = 4 rounds up with vroundpd. Readers decode a cell
//    exactly as cell * 2^-15.
//  * Vector loop tails run the scalar reference helpers themselves.
//  * No FMA, ever — fused multiply-add rounds differently than mul+add.
//    The kernel translation units are compiled with -ffp-contract=off so
//    the compiler cannot contract on its own.
//
// Input contract: coordinates and net directions are finite and
// non-negative (Dataset::Validate and UtilityNet enforce this); `best`
// denominators are >= 0. Kernels do not handle NaN.
//
// Threading: kernels are pure functions over their arguments. Dispatch
// state is a single atomic pointer; `SetMode()` may be called at any time
// (results are bit-identical either way), though the intended use is once
// at startup. The only lock in this layer guards the scratch-buffer pool
// (an annotated Mutex in simd.cc); everything else is lock-free.

#ifndef FAIRHMS_COMMON_SIMD_H_
#define FAIRHMS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

namespace fairhms {
namespace simd {

// ---------------------------------------------------------------------------
// Layout constants.

/// Bump when the SoA layout or kernel reduction orders change in a way that
/// invalidates cached evaluator artifacts (2: float candidate cache;
/// 3: 16-bit fixed-point candidate cache).
constexpr int kLayoutVersion = 3;

/// Column padding granularity, in rows (64 bytes of doubles).
constexpr size_t kPadRows = 8;

/// Alignment of every column allocation, in bytes (one cache line).
constexpr size_t kAlign = 64;

/// Direction-tile width for L1 blocking. One tile of a d=8 net is
/// 8 * kDirTile * 8B = 32 KiB of columns at most; the common d=6 case plus
/// a best[] tile and an output tile stays L1-resident while candidate rows
/// stream through. Callers partition [0, m) into kDirTile chunks; kernels
/// accept arbitrary flat ranges.
constexpr size_t kDirTile = 512;

/// Virtual accumulator lanes of the canonical sum-reduction order. Fixed
/// across all dispatch levels (W = 4 uses exactly 4 hardware lanes; W = 2
/// pairs two 2-lane accumulators; scalar simulates all four).
constexpr size_t kSumLanes = 4;

// ---------------------------------------------------------------------------
// Candidate-cache cells.

/// One cell of the candidate cache: a happiness h in [0, 1] held as the
/// 16-bit fixed-point upper bound ceil(h * 2^15), in [0, kCellOne]. Its
/// value is cell * kCellUlp, exactly, at least h and less than h + 2^-15.
using Cell = uint16_t;

/// Cells per unit of happiness, and the value of one cell step.
constexpr double kCellScale = 0x1p15;
constexpr double kCellUlp = 0x1p-15;

/// The cell of happiness 1.
constexpr Cell kCellOne = Cell{1} << 15;

// ---------------------------------------------------------------------------
// Aligned storage.

/// Minimal C++17 aligned allocator (std::allocator ignores
/// over-aligned-on-purpose requests pre-C++17 semantics we don't want to
/// rely on across toolchains).
template <typename T, size_t Align = kAlign>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}
  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
};
template <typename T, typename U, size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}
template <typename T, typename U, size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

using AlignedVector = std::vector<double, AlignedAllocator<double>>;

// ---------------------------------------------------------------------------
// Pooled scratch storage.

/// Cache-line-aligned buffer of cells for bulk matrices whose every cell
/// the fill kernels overwrite: the candidate cache, NetEvaluator's matrix
/// of happiness rows as fixed-point upper bounds (HappinessRangeUp), which
/// lazy greedy reads as upper bounds on its gains. Two deliberate
/// differences from AlignedVector:
///
///  * ResizeUninitialized() does not zero-fill. Zeroing a 100+ MB matrix
///    that the very next kernel pass overwrites doubles the write traffic
///    for nothing.
///  * Freed allocations are recycled through a small, bounded,
///    process-wide pool (see simd.cc), so rebuilding an evaluator does not
///    re-pay the page-fault cost of a buffer an evicted evaluator just
///    released — first-touch faults on a fresh 100 MB allocation cost more
///    than the fill kernels themselves. A pooled block is only handed to a
///    request it fits closely (capacity() <= n + n / 8), so size() stays
///    an honest measure of the memory held.
///
/// Callers must write every cell they later read; reading an
/// uninitialized cell is a bug this class makes possible, which is why it
/// is not a general-purpose container.
class ScratchBuffer {
 public:
  ScratchBuffer() = default;
  ~ScratchBuffer() { Release(); }
  ScratchBuffer(ScratchBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), cap_(other.cap_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  ScratchBuffer& operator=(ScratchBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  /// Sizes the buffer to n cells with UNINITIALIZED contents (both on
  /// growth and on reuse of the current allocation). Reuses the current
  /// allocation when it is large enough, else a pooled block that fits
  /// closely, else maps a fresh one of exactly n cells.
  void ResizeUninitialized(size_t n);

  /// Returns the allocation to the pool (which frees its oldest idle
  /// blocks to make room) and empties the buffer.
  void Release();

  Cell* data() { return data_; }
  const Cell* data() const { return data_; }
  size_t size() const { return size_; }
  /// Cells in the held block (>= size()).
  size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  Cell& operator[](size_t i) { return data_[i]; }
  const Cell& operator[](size_t i) const { return data_[i]; }

 private:
  Cell* data_ = nullptr;
  size_t size_ = 0;  // Cells, as sized by the caller.
  size_t cap_ = 0;   // Cells, as allocated (>= size_).
};

/// Bounds on the idle blocks the scratch pool keeps (see simd.cc).
constexpr size_t kScratchPoolMaxEntries = 4;
constexpr size_t kScratchPoolMaxBytes = 256u << 20;  // 256 MiB.

/// Bytes currently held idle in the scratch pool. Idle scratch is bounded
/// (the constants above) and sits outside the artifact-cache byte
/// accounting, which only tracks live evaluator state.
size_t ScratchPoolIdleBytes();

/// Frees every idle pooled allocation. Memory-pressure and test hook.
void ScratchPoolTrim();

// ---------------------------------------------------------------------------
// ColumnBlock: a dimension-major (structure-of-arrays) coordinate block.

/// `dim` cache-line-aligned columns of `rows` doubles each, padded with
/// zeros to a multiple of kPadRows. Kernels read columns via `cols()`, an
/// array of `dim` pointers. Padding exists for allocation/alignment slack
/// only — kernels handle tails explicitly and never read padded lanes for
/// semantics (a zero pad row would otherwise fake a dominance witness).
class ColumnBlock {
 public:
  ColumnBlock() = default;
  explicit ColumnBlock(int dim) : dim_(dim), cols_(static_cast<size_t>(dim)) {
    RefreshPtrs();
  }
  /// A copy points at its own columns (cols() is rebuilt); a move keeps
  /// the buffers, so the moved pointers stay valid.
  ColumnBlock(const ColumnBlock& o)
      : dim_(o.dim_), rows_(o.rows_), cols_(o.cols_) {
    RefreshPtrs();
  }
  ColumnBlock& operator=(const ColumnBlock& o) {
    dim_ = o.dim_;
    rows_ = o.rows_;
    cols_ = o.cols_;
    RefreshPtrs();
    return *this;
  }
  ColumnBlock(ColumnBlock&&) = default;
  ColumnBlock& operator=(ColumnBlock&&) = default;

  int dim() const { return dim_; }
  size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Logical padded extent: rows() rounded up to kPadRows; entries in
  /// [rows(), padded_rows()) are zero.
  size_t padded_rows() const { return RoundUp(rows_); }

  void Clear() {
    rows_ = 0;
    for (auto& c : cols_) c.clear();
    RefreshPtrs();
  }

  /// Appends one row (p[0..dim)). Amortized O(dim).
  void Append(const double* p) {
    EnsureCapacity(rows_ + 1);
    for (int j = 0; j < dim_; ++j) cols_[static_cast<size_t>(j)][rows_] = p[j];
    ++rows_;
  }

  /// Sizes the block to `rows` rows (zero-filled, padded); fill columns via
  /// mutable_col(). Used by bulk gather paths.
  void ResizeRows(size_t rows) {
    const size_t cap = RoundUp(rows);
    for (auto& c : cols_) c.assign(cap, 0.0);
    rows_ = rows;
    RefreshPtrs();
  }

  const double* col(int j) const { return cols_[static_cast<size_t>(j)].data(); }
  double* mutable_col(int j) { return cols_[static_cast<size_t>(j)].data(); }

  /// Array of dim() column pointers, stable until the next mutation.
  const double* const* cols() const { return ptrs_.data(); }

  size_t bytes() const {
    size_t b = ptrs_.capacity() * sizeof(const double*);
    for (const auto& c : cols_) b += c.capacity() * sizeof(double);
    return b;
  }

 private:
  static size_t RoundUp(size_t n) {
    return (n + kPadRows - 1) / kPadRows * kPadRows;
  }

  void EnsureCapacity(size_t rows) {
    const size_t need = RoundUp(rows);
    if (!cols_.empty() && cols_[0].size() >= need) return;
    size_t cap = cols_.empty() ? need : cols_[0].size();
    if (cap < kPadRows) cap = kPadRows;
    while (cap < need) cap *= 2;
    for (auto& c : cols_) c.resize(cap, 0.0);
    RefreshPtrs();
  }

  void RefreshPtrs() {
    ptrs_.resize(static_cast<size_t>(dim_));
    for (int j = 0; j < dim_; ++j) {
      ptrs_[static_cast<size_t>(j)] = cols_[static_cast<size_t>(j)].data();
    }
  }

  int dim_ = 0;
  size_t rows_ = 0;
  std::vector<AlignedVector> cols_;
  std::vector<const double*> ptrs_;
};

// ---------------------------------------------------------------------------
// Runtime dispatch.

enum class DispatchLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };
enum class SimdMode { kAuto = 0, kOff = 1 };

/// Parses "auto" / "off" (exact, lowercase). Any other value is refused.
StatusOr<SimdMode> ParseSimdMode(const std::string& text);

/// Validates FAIRHMS_SIMD (unset/empty counts as "auto") without changing
/// state. Tools call this early to refuse bad environments with a clean
/// error; if they don't, lazy initialization warns once on stderr and runs
/// in auto mode.
Status ValidateSimdEnv();

/// Pins the dispatch mode process-wide. kOff forces the scalar reference
/// path. Results are bit-identical in either mode.
void SetMode(SimdMode mode);
SimdMode Mode();

/// Best level the host CPU supports (independent of Mode()).
DispatchLevel DetectedLevel();

/// Level actually used by kernel calls right now (kScalar when Mode() is
/// kOff).
DispatchLevel ActiveLevel();

const char* DispatchLevelName(DispatchLevel level);
const char* SimdModeName(SimdMode mode);

/// Cache-key component: layout version and active dispatch level. Cached
/// evaluator artifacts are keyed on this so a layout change or mode flip
/// can never serve stale precomputes (results are bit-identical across
/// levels, so this is conservative, not load-bearing).
uint32_t LayoutKey();

// ---------------------------------------------------------------------------
// Kernels. All take flat ranges; callers tile with kDirTile where blocking
// matters. `cols` always has `d` column pointers; direction-indexed kernels
// read cols[dim][j], row-indexed kernels read cols[dim][row].

/// best[j] = max(best[j], <u_j, p_r>) for every packed row r, j in [j0, j1).
/// `net` columns are direction-major (net.rows() == direction count);
/// `pts` is a dense row-major block of nrows * d coordinates.
void NetBestRange(const double* const* net, size_t j0, size_t j1,
                  const double* pts, size_t nrows, size_t d, double* best);

/// out[j] = best[j] <= eps ? 1.0 : min(1.0, <u_j, p> / best[j]),
/// for j in [j0, j1).
void HappinessRange(const double* const* net, size_t j0, size_t j1,
                    const double* p, size_t d, const double* best, double eps,
                    double* out);

/// out[j] = ceil(h_j * 2^15), the cell of the HappinessRange value h_j,
/// for j in [j0, j1): the cache fill. Rounding up keeps every cell an
/// upper bound on the exact happiness, which TruncGainCached relies on.
void HappinessRangeUp(const double* const* net, size_t j0, size_t j1,
                      const double* p, size_t d, const double* best,
                      double eps, Cell* out);

/// min over j in [j0, j1) of hr(u_j, pts) where
/// hr = best[j] <= eps ? 1.0 : min(1.0, (max_r <u_j, p_r>) / best[j]).
/// Requires j1 - j0 <= kDirTile (callers tile). Bitwise equal to the
/// per-row-division formulation: division by a positive constant is
/// monotone and max selects an element, so max_r min(1, s_r / b) ==
/// min(1, (max_r s_r) / b) exactly.
double MhrRange(const double* const* net, size_t j0, size_t j1,
                const double* best, double eps, const double* pts,
                size_t nrows, size_t d);

/// cur[j] = max(cur[j], happiness_j(p)) for j in [j0, j1) (uncached Add).
void AddHappinessMax(const double* const* net, size_t j0, size_t j1,
                     const double* p, size_t d, const double* best, double eps,
                     double* cur);

/// The quads a truncated-gain sum visits: 4-direction groups [j, j + 4)
/// with j % 4 == 0 and j + 4 <= n & ~3, named by their first direction j,
/// strictly ascending. The sums below visit the listed quads plus the tail
/// [n & ~3, n); a quad left out contributes nothing, which is exact when
/// it is dead (see the bit-identity contract above).
struct QuadList {
  const uint32_t* first = nullptr;
  size_t count = 0;
};

/// Every quad of an n-direction sum: 0, 4, ..., (n & ~3) - 4.
void AllQuads(size_t n, std::vector<uint32_t>* quads);

/// Drops from `quads`, keeping their order, each quad whose four
/// directions all have cur[j] >= tau: the dead quads, whose gain terms
/// are all +0.0 at tau. cur only rising, a dead quad stays dead.
void DropDeadQuads(const double* cur, double tau,
                   std::vector<uint32_t>* quads);

/// Canonical-order sum of min(max(cur[j], h_j), tau) - min(cur[j], tau)
/// over a row of cells (HappinessRangeUp), h_j = hrow[j] * 2^-15, over the
/// listed quads and the tail. Decoding is exact, and min, max,
/// subtraction and the canonical sum are all monotone, so the result is
/// never below TruncGainEval's exact gain for the same point and quads:
/// an upper bound, not a gain.
double TruncGainCached(const Cell* hrow, const double* cur, size_t n,
                       double tau, QuadList quads);

/// TruncGainCached over a row of kCellOne cells and every quad, bit for
/// bit, without the row: the gain of a point with happiness 1 under every
/// direction.
double TruncGainCap(const double* cur, size_t n, double tau);

/// Same gain, computing happiness on the fly (no scratch, canonical
/// order), over the listed quads and the tail.
double TruncGainEval(const double* const* net, size_t m, const double* p,
                     size_t d, const double* best, double eps,
                     const double* cur, double tau, QuadList quads);

/// Canonical-order sum of min(cur[j], tau).
double TruncSum(const double* cur, size_t n, double tau);

/// Exact minimum of x[0..n); 1.0 when n == 0 (mhr convention).
double MinReduce(const double* x, size_t n);

/// out[i] = sum over dims of cols[dim][i], accumulated in dimension order
/// per row — the exact SumCoords() chain.
void RowSums(const double* const* cols, size_t nrows, size_t d, double* out);

/// True iff some row r of the block strictly Pareto-dominates p:
/// cols[*][r] >= p[*] everywhere and > somewhere.
bool AnyDominates(const double* const* cols, size_t nrows, size_t d,
                  const double* p);

/// True iff some row r weakly dominates p: cols[*][r] >= p[*] everywhere.
bool AnyWeaklyDominates(const double* const* cols, size_t nrows, size_t d,
                        const double* p);

}  // namespace simd
}  // namespace fairhms

#endif  // FAIRHMS_COMMON_SIMD_H_
