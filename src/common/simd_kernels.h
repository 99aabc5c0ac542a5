// Internal kernel layer behind src/common/simd.h — not part of the public
// surface. Every kernel is written here once: a scalar reference body and
// one lane-width template over GCC/Clang vector extensions, which simd.cc
// instantiates at W = 2 and simd_avx2.cc (the only -mavx2 TU) at W = 4.
// simd.h lists the level names and the bit-identity rules.
//
// Linkage rule for ISA-flagged TUs: everything after the KernelTable
// declarations sits in an unnamed namespace, so each TU compiles private
// copies under its own flags. An inline function with external linkage
// compiled under -mavx2 would be a weak symbol the linker may keep for
// every caller, including the scalar path on a host without AVX2 (SIGILL).
// For the same reason the bodies use the local Min/Max instead of
// std::min/std::max, whose out-of-line instances (-O0) are weak too. The
// simd.avx2_exports test fails if the AVX2 object exports anything but
// Avx2Kernels().

#ifndef FAIRHMS_COMMON_SIMD_KERNELS_H_
#define FAIRHMS_COMMON_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/simd.h"

namespace fairhms {
namespace simd {
namespace internal {

struct KernelTable {
  DispatchLevel level;
  void (*net_best)(const double* const* net, size_t j0, size_t j1,
                   const double* pts, size_t nrows, size_t d, double* best);
  void (*happiness_range)(const double* const* net, size_t j0, size_t j1,
                          const double* p, size_t d, const double* best,
                          double eps, double* out);
  void (*happiness_range_up)(const double* const* net, size_t j0, size_t j1,
                             const double* p, size_t d, const double* best,
                             double eps, Cell* out);
  double (*mhr_range)(const double* const* net, size_t j0, size_t j1,
                      const double* best, double eps, const double* pts,
                      size_t nrows, size_t d);
  void (*add_happiness_max)(const double* const* net, size_t j0, size_t j1,
                            const double* p, size_t d, const double* best,
                            double eps, double* cur);
  double (*trunc_gain_cached)(const Cell* hrow, const double* cur, size_t n,
                              double tau, QuadList quads);
  double (*trunc_gain_eval)(const double* const* net, size_t m,
                            const double* p, size_t d, const double* best,
                            double eps, const double* cur, double tau,
                            QuadList quads);
  double (*trunc_sum)(const double* cur, size_t n, double tau);
  double (*min_reduce)(const double* x, size_t n);
  void (*row_sums)(const double* const* cols, size_t nrows, size_t d,
                   double* out);
  bool (*any_dominates)(const double* const* cols, size_t nrows, size_t d,
                        const double* p);
  bool (*any_weak_dominates)(const double* const* cols, size_t nrows,
                             size_t d, const double* p);
};

/// Always available. Never returns nullptr.
const KernelTable* ScalarKernels();
/// The W = 4 table; nullptr unless the build targets x86-64.
const KernelTable* Avx2Kernels();
/// Every table this build contains that the host CPU can run: scalar first,
/// the widest (auto mode's pick) last. Tests compare each against scalar.
std::vector<const KernelTable*> RunnableKernels();

namespace {

// ---------------------------------------------------------------------------
// Scalar reference bodies (also the tails of every vector kernel).

/// std::min / std::max semantics exactly (first argument wins ties).
inline double Min(double a, double b) { return b < a ? b : a; }
inline double Max(double a, double b) { return a < b ? b : a; }

/// <u_j, p>: sequential accumulation over dimensions — the canonical
/// per-lane chain (identical to geom/vec.h Dot()).
inline double DotDir(const double* const* net, size_t j, const double* p,
                     size_t d) {
  double s = 0.0;
  for (size_t k = 0; k < d; ++k) s += p[k] * net[k][j];
  return s;
}

inline double HappinessOf(double s, double b, double eps) {
  if (b <= eps) return 1.0;
  return Min(1.0, s / b);
}

/// The cell of h in the happiness domain [0, 1]: ceil(h * 2^15). The
/// scaling is exact, truncating x in [0, 2^15] to an integer is exact, and
/// the integer converts back exactly, so adding the compare bumps exactly
/// the x with a fractional part (branch-free).
inline Cell CellUp(double h) {
  const double x = h * kCellScale;
  const int32_t t = static_cast<int32_t>(x);
  return static_cast<Cell>(t + (static_cast<double>(t) < x));
}

/// A cell's value, exactly: q <= 2^15 scaled by a power of two.
inline double CellValue(Cell q) { return static_cast<double>(q) * kCellUlp; }

/// One term of the truncated gain: how far h lifts cur towards tau.
inline double TruncTerm(double cur, double h, double tau) {
  return Min(Max(cur, h), tau) - Min(cur, tau);
}

/// Canonical 4-virtual-lane sum over the quads j = first(i), i < count
/// (ascending, below n & ~3), then the tail [n & ~3, n): lanes stripe
/// j % 4, combine as (p0 + p1) + (p2 + p3), tail added sequentially
/// afterwards. Every dispatch level reproduces exactly this order.
template <typename First, typename Term>
inline double CanonicalSumScalar(size_t count, First&& first, size_t n,
                                 Term&& term) {
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const size_t j = first(i);
    p0 += term(j);
    p1 += term(j + 1);
    p2 += term(j + 2);
    p3 += term(j + 3);
  }
  double total = (p0 + p1) + (p2 + p3);
  for (size_t j = n & ~static_cast<size_t>(3); j < n; ++j) total += term(j);
  return total;
}

/// The canonical sum of term(0), ..., term(n - 1): every quad, then the
/// tail.
template <typename Term>
inline double CanonicalSumScalar(size_t n, Term&& term) {
  return CanonicalSumScalar(
      n / kSumLanes, [](size_t i) { return i * kSumLanes; }, n, term);
}

/// The same sum over the quads `quads` names.
template <typename Term>
inline double CanonicalSumScalar(QuadList quads, size_t n, Term&& term) {
  return CanonicalSumScalar(
      quads.count, [&](size_t i) { return size_t{quads.first[i]}; }, n, term);
}

inline void NetBestScalar(const double* const* net, size_t j0, size_t j1,
                          const double* pts, size_t nrows, size_t d,
                          double* best) {
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    for (size_t j = j0; j < j1; ++j) {
      const double s = DotDir(net, j, p, d);
      if (s > best[j]) best[j] = s;
    }
  }
}

inline void HappinessRangeScalar(const double* const* net, size_t j0,
                                 size_t j1, const double* p, size_t d,
                                 const double* best, double eps, double* out) {
  for (size_t j = j0; j < j1; ++j) {
    out[j] = HappinessOf(DotDir(net, j, p, d), best[j], eps);
  }
}

inline double MhrRangeScalar(const double* const* net, size_t j0, size_t j1,
                             const double* best, double eps, const double* pts,
                             size_t nrows, size_t d) {
  double smax[kDirTile];
  const size_t len = j1 - j0;
  for (size_t jj = 0; jj < len; ++jj) smax[jj] = 0.0;
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    for (size_t jj = 0; jj < len; ++jj) {
      const double s = DotDir(net, j0 + jj, p, d);
      if (s > smax[jj]) smax[jj] = s;
    }
  }
  double mn = 1.0;
  for (size_t jj = 0; jj < len; ++jj) {
    mn = Min(mn, HappinessOf(smax[jj], best[j0 + jj], eps));
  }
  return mn;
}

inline void HappinessRangeUpScalar(const double* const* net, size_t j0,
                                   size_t j1, const double* p, size_t d,
                                   const double* best, double eps,
                                   Cell* out) {
  for (size_t j = j0; j < j1; ++j) {
    out[j] = CellUp(HappinessOf(DotDir(net, j, p, d), best[j], eps));
  }
}

inline void AddHappinessMaxScalar(const double* const* net, size_t j0,
                                  size_t j1, const double* p, size_t d,
                                  const double* best, double eps,
                                  double* cur) {
  for (size_t j = j0; j < j1; ++j) {
    const double h = HappinessOf(DotDir(net, j, p, d), best[j], eps);
    if (h > cur[j]) cur[j] = h;
  }
}

/// The gain term over a row of cells. Decoding is exact and min, max and
/// subtraction are monotone, so the term is never below the term of the
/// exact happiness it bounds.
inline double TruncGainTermCached(const Cell* hrow, const double* cur,
                                  size_t j, double tau) {
  return TruncTerm(cur[j], CellValue(hrow[j]), tau);
}

inline double TruncGainCachedScalar(const Cell* hrow, const double* cur,
                                    size_t n, double tau, QuadList quads) {
  return CanonicalSumScalar(quads, n, [&](size_t j) {
    return TruncGainTermCached(hrow, cur, j, tau);
  });
}

inline double TruncGainTermEval(const double* const* net, const double* p,
                                size_t d, const double* best, double eps,
                                const double* cur, size_t j, double tau) {
  return TruncTerm(cur[j], HappinessOf(DotDir(net, j, p, d), best[j], eps),
                   tau);
}

inline double TruncGainEvalScalar(const double* const* net, size_t m,
                                  const double* p, size_t d,
                                  const double* best, double eps,
                                  const double* cur, double tau,
                                  QuadList quads) {
  return CanonicalSumScalar(quads, m, [&](size_t j) {
    return TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
  });
}

inline double TruncSumScalar(const double* cur, size_t n, double tau) {
  return CanonicalSumScalar(n, [&](size_t j) { return Min(cur[j], tau); });
}

inline double MinReduceScalar(const double* x, size_t n) {
  double mn = 1.0;
  for (size_t i = 0; i < n; ++i) mn = Min(mn, x[i]);
  return mn;
}

inline void RowSumsScalar(const double* const* cols, size_t nrows, size_t d,
                          double* out) {
  for (size_t i = 0; i < nrows; ++i) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) s += cols[k][i];
    out[i] = s;
  }
}

inline bool DominatesRow(const double* const* cols, size_t r, size_t d,
                         const double* p) {
  bool gt = false;
  for (size_t k = 0; k < d; ++k) {
    const double v = cols[k][r];
    if (v < p[k]) return false;
    if (v > p[k]) gt = true;
  }
  return gt;
}

inline bool WeaklyDominatesRow(const double* const* cols, size_t r, size_t d,
                               const double* p) {
  for (size_t k = 0; k < d; ++k) {
    if (cols[k][r] < p[k]) return false;
  }
  return true;
}

inline bool AnyDominatesScalar(const double* const* cols, size_t nrows,
                               size_t d, const double* p) {
  for (size_t r = 0; r < nrows; ++r) {
    if (DominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

inline bool AnyWeakDominatesScalar(const double* const* cols, size_t nrows,
                                   size_t d, const double* p) {
  for (size_t r = 0; r < nrows; ++r) {
    if (WeaklyDominatesRow(cols, r, d, p)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The vector body: W lanes of doubles, one net direction (or one row) per
// lane. Each lane evaluates the scalar expression above — the dot chain
// sums in dimension order, there is no FMA, max updates and selects keep
// the scalar comparisons, and min/max differ only on ties no happiness
// value can show — so the lane width cannot change a bit.

/// W doubles as one vector. Each width is spelled out: GCC drops a
/// vector_size that depends on a template parameter in an alias.
using Vec2 = double __attribute__((vector_size(16)));
using Vec4 = double __attribute__((vector_size(32)));
template <size_t W>
using Vec = std::conditional_t<W == 2, Vec2, Vec4>;

/// W int32 lanes and W 16-bit lanes: the cells of a cached row on their
/// way to or from doubles.
using VecI2 = int32_t __attribute__((vector_size(8)));
using VecI4 = int32_t __attribute__((vector_size(16)));
template <size_t W>
using VecI = std::conditional_t<W == 2, VecI2, VecI4>;
using VecC2 = Cell __attribute__((vector_size(4)));
using VecC4 = Cell __attribute__((vector_size(8)));
template <size_t W>
using VecC = std::conditional_t<W == 2, VecC2, VecC4>;

/// Unaligned, alias-safe access to one vector of T — the same type the
/// compilers' own unaligned-load intrinsics use. (A __builtin_memcpy load
/// measured 4-6% slower in the dot loops: GCC folds it into an indexed
/// vmulpd operand, which Intel cores split into two uops.)
template <typename V, typename T>
inline V Load(const T* p) {
  using Unaligned [[gnu::may_alias, gnu::aligned(1)]] = V;
  return *reinterpret_cast<const Unaligned*>(p);
}

template <typename T, typename V>
inline void Store(T* p, V v) {
  using Unaligned [[gnu::may_alias, gnu::aligned(1)]] = V;
  *reinterpret_cast<Unaligned*>(p) = v;
}

/// All lanes = x. x - (+0.0) == x exactly, -0.0 included (x + 0.0 is not).
template <typename V>
inline V Splat(double x) {
  return x - V{};
}

/// Lane-wise min/max with the hardware operand rule (minpd/maxpd). They
/// differ from std::min/std::max only in which of two equal operands they
/// return, which no happiness value (never NaN or -0.0) can show.
template <typename V>
inline V VMin(V a, V b) {
  return a < b ? a : b;
}

template <typename V>
inline V VMax(V a, V b) {
  return a > b ? a : b;
}

/// True iff any lane of the comparison mask m is set (branch-free OR).
template <typename M>
inline bool AnyLane(M m) {
  uint64_t lanes[sizeof(M) / sizeof(uint64_t)];
  __builtin_memcpy(lanes, &m, sizeof(M));
  uint64_t any = 0;
  for (const uint64_t lane : lanes) any |= lane;
  return any != 0;
}

/// HappinessOf per lane. Inactive lanes divide by 1 instead of a possibly
/// zero best[j]; the quotient is discarded by the final select.
template <typename V>
inline V HappinessV(V s, V b, V epsv) {
  const V one = Splat<V>(1.0);
  const auto inactive = b <= epsv;
  return inactive ? one : VMin(s / (inactive ? one : b), one);
}

/// The next three spell their conversions per element: GCC 12 lowers
/// __builtin_convertvector between these lane widths to split half-width
/// conversions and lane inserts, where these forms compile to one
/// vpmovzxwd, one vcvtdq2pd and one shuffle respectively.

/// W cells widened to int32 lanes.
template <size_t W>
inline VecI<W> LoadCells(const Cell* q) {
  if constexpr (W == 2) {
    return VecI2{q[0], q[1]};
  } else {
    return VecI4{q[0], q[1], q[2], q[3]};
  }
}

/// W int32 lanes as doubles (exact).
template <size_t W>
inline Vec<W> ToDoubles(VecI<W> i) {
  if constexpr (W == 2) {
    return Vec2{static_cast<double>(i[0]), static_cast<double>(i[1])};
  } else {
    return Vec4{static_cast<double>(i[0]), static_cast<double>(i[1]),
                static_cast<double>(i[2]), static_cast<double>(i[3])};
  }
}

/// A double-lane comparison mask (0 or -1 per lane) as int32 lanes.
template <size_t W, typename M>
inline VecI<W> NarrowMask(M m) {
  if constexpr (W == 2) {
    return VecI2{static_cast<int32_t>(m[0]), static_cast<int32_t>(m[1])};
  } else {
    return VecI4{static_cast<int32_t>(m[0]), static_cast<int32_t>(m[1]),
                 static_cast<int32_t>(m[2]), static_cast<int32_t>(m[3])};
  }
}

/// ceil(x) per lane as int32, for x in [0, 2^15]: the truncation, plus one
/// where it fell below x (the mask is -1 there). Under AVX, vroundpd rounds
/// up directly; the ceiling is exact either way.
template <size_t W>
inline VecI<W> CeilToInt(Vec<W> x) {
#if defined(__AVX__)
  if constexpr (W == 4) {
    constexpr int kTowardPlusInf = 0x0A;  // Ceil, precision exception off.
    return __builtin_convertvector(
        __builtin_ia32_roundpd256(x, kTowardPlusInf), VecI4);
  }
#endif
  const VecI<W> t = __builtin_convertvector(x, VecI<W>);
  return t - NarrowMask<W>(ToDoubles<W>(t) < x);
}

/// The low 16 bits of each int32 lane, in lane order: the even 16-bit
/// halves on a little-endian target. One shuffle, where
/// __builtin_convertvector masks and then packs.
template <size_t W>
inline VecC<W> NarrowToCells(VecI<W> q) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__, "low halves");
  if constexpr (W == 2) {
    const VecC4 halves = reinterpret_cast<VecC4>(q);
    return __builtin_shufflevector(halves, halves, 0, 2);
  } else {
    using VecC8 = Cell __attribute__((vector_size(16)));
    const VecC8 halves = reinterpret_cast<VecC8>(q);
    return __builtin_shufflevector(halves, halves, 0, 2, 4, 6);
  }
}

/// CellUp per lane, stored to out[0, W).
template <size_t W>
inline void StoreCellsV(Cell* out, Vec<W> h) {
  Store(out, NarrowToCells<W>(CeilToInt<W>(h * Splat<Vec<W>>(kCellScale))));
}

/// CellValue of the W cells at q.
template <size_t W>
inline Vec<W> CellValuesV(const Cell* q) {
  return ToDoubles<W>(LoadCells<W>(q)) * Splat<Vec<W>>(kCellUlp);
}

/// One row's coordinates as lane vectors for the direction-swept kernels.
/// The first kHoistDims are broadcast once per row instead of once per
/// direction block (re-broadcasting p[k] per block costs more load-port
/// uops than the column loads themselves); the rest where they are used.
template <typename V>
struct Row {
  static constexpr size_t kHoistDims = 16;

  Row(const double* p, size_t d)
      : p(p), d(d), hoisted(d < kHoistDims ? d : kHoistDims) {
    for (size_t k = 0; k < hoisted; ++k) pk[k] = Splat<V>(p[k]);
  }

  /// Calls f(k, p[k] in every lane) for k = 0, ..., d - 1 in order.
  template <typename F>
  void ForEachDim(F&& f) const {
    size_t k = 0;
    for (; k < hoisted; ++k) f(k, pk[k]);
    for (; k < d; ++k) f(k, Splat<V>(p[k]));
  }

  const double* p;
  size_t d;
  size_t hoisted;
  V pk[kHoistDims];
};

/// Dot of one row with directions [j, j + W).
template <typename V>
inline V Dot(const double* const* net, size_t j, const Row<V>& row) {
  V acc = {};
  row.ForEachDim([&](size_t k, V pk) { acc += pk * Load<V>(net[k] + j); });
  return acc;
}

/// Calls f(j, s) for each W-direction block [j, j + W) of [j0, j1), with s
/// the row's dot vector there. Blocks go two at a time while they fit: two
/// independent accumulator chains, so the sequential per-lane add chain
/// does not serialize the loop on add latency. Returns the first direction
/// left for the scalar tail.
template <size_t W, typename V, typename F>
inline size_t SweepDirections(const double* const* net, size_t j0, size_t j1,
                              const Row<V>& row, F&& f) {
  size_t j = j0;
  for (; j + 2 * W <= j1; j += 2 * W) {
    V a0 = {}, a1 = {};
    row.ForEachDim([&](size_t k, V pk) {
      a0 += pk * Load<V>(net[k] + j);
      a1 += pk * Load<V>(net[k] + j + W);
    });
    f(j, a0);
    f(j + W, a1);
  }
  for (; j + W <= j1; j += W) f(j, Dot(net, j, row));
  return j;
}

/// Canonical 4-virtual-lane sum over the quads j = first(i), i < count,
/// then the tail [n & ~3, n) (CanonicalSumScalar's order). vterm(j) gives
/// the W lanes from j, summed in 4 / W accumulators holding virtual lanes
/// 0..3 in order and combined as (p0 + p1) + (p2 + p3); the scalar
/// term(j) of the tail is then added in order.
template <size_t W, typename First, typename VTerm, typename Term>
inline double CanonicalSum(size_t count, First&& first, size_t n,
                           VTerm&& vterm, Term&& term) {
  static_assert(W == 2 || W == 4, "4 / W accumulators");
  Vec<W> acc[2] = {};
  for (size_t i = 0; i < count; ++i) {
    const size_t j = first(i);
    acc[0] += vterm(j);
    if (W == 2) acc[1] += vterm(j + 2);
  }
  double p[kSumLanes];
  __builtin_memcpy(p, acc, sizeof(p));
  double total = (p[0] + p[1]) + (p[2] + p[3]);
  for (size_t j = n & ~static_cast<size_t>(3); j < n; ++j) total += term(j);
  return total;
}

/// The canonical sum over [0, n): every quad, then the tail.
template <size_t W, typename VTerm, typename Term>
inline double CanonicalSum(size_t n, VTerm&& vterm, Term&& term) {
  return CanonicalSum<W>(
      n / kSumLanes, [](size_t i) { return i * kSumLanes; }, n, vterm, term);
}

/// The canonical sum over the quads `quads` names, then the tail.
template <size_t W, typename VTerm, typename Term>
inline double CanonicalSum(QuadList quads, size_t n, VTerm&& vterm,
                           Term&& term) {
  return CanonicalSum<W>(
      quads.count, [&](size_t i) { return size_t{quads.first[i]}; }, n,
      vterm, term);
}

/// min(1, term(0), ..., term(n - 1)), with vterm(i) the W lanes from i and
/// the scalar term(i) for the tail — exact in any order: no NaN and no
/// -0.0 in the happiness domain.
template <size_t W, typename VTerm, typename Term>
inline double MinOf(size_t n, VTerm&& vterm, Term&& term) {
  Vec<W> mnv = Splat<Vec<W>>(1.0);
  size_t i = 0;
  for (; i + W <= n; i += W) mnv = VMin(mnv, vterm(i));
  double mn = mnv[0];
  for (size_t k = 1; k < W; ++k) mn = Min(mn, mnv[k]);
  for (; i < n; ++i) mn = Min(mn, term(i));
  return mn;
}

template <size_t W>
void NetBestV(const double* const* net, size_t j0, size_t j1,
              const double* pts, size_t nrows, size_t d, double* best) {
  using V = Vec<W>;
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    const Row<V> row(p, d);
    const size_t j = SweepDirections<W>(net, j0, j1, row, [&](size_t i, V s) {
      const V b = Load<V>(best + i);
      Store(best + i, s > b ? s : b);
    });
    NetBestScalar(net, j, j1, p, 1, d, best);
  }
}

template <size_t W>
void HappinessRangeV(const double* const* net, size_t j0, size_t j1,
                     const double* p, size_t d, const double* best, double eps,
                     double* out) {
  using V = Vec<W>;
  const Row<V> row(p, d);
  const V epsv = Splat<V>(eps);
  const size_t j = SweepDirections<W>(net, j0, j1, row, [&](size_t jj, V s) {
    Store(out + jj, HappinessV(s, Load<V>(best + jj), epsv));
  });
  HappinessRangeScalar(net, j, j1, p, d, best, eps, out);
}

template <size_t W>
void HappinessRangeUpV(const double* const* net, size_t j0, size_t j1,
                       const double* p, size_t d, const double* best,
                       double eps, Cell* out) {
  using V = Vec<W>;
  const Row<V> row(p, d);
  const V epsv = Splat<V>(eps);
  const size_t j = SweepDirections<W>(net, j0, j1, row, [&](size_t jj, V s) {
    StoreCellsV<W>(out + jj, HappinessV(s, Load<V>(best + jj), epsv));
  });
  HappinessRangeUpScalar(net, j, j1, p, d, best, eps, out);
}

template <size_t W>
double MhrRangeV(const double* const* net, size_t j0, size_t j1,
                 const double* best, double eps, const double* pts,
                 size_t nrows, size_t d) {
  using V = Vec<W>;
  alignas(kAlign) double smax[kDirTile];
  const size_t len = j1 - j0;
  for (size_t jj = 0; jj < len; ++jj) smax[jj] = 0.0;
  for (size_t r = 0; r < nrows; ++r) {
    const double* p = pts + r * d;
    const Row<V> row(p, d);
    size_t j = SweepDirections<W>(net, j0, j1, row, [&](size_t jj, V s) {
      const V m = Load<V>(smax + (jj - j0));
      Store(smax + (jj - j0), s > m ? s : m);
    });
    for (; j < j1; ++j) {
      const double s = DotDir(net, j, p, d);
      if (s > smax[j - j0]) smax[j - j0] = s;
    }
  }
  const V epsv = Splat<V>(eps);
  return MinOf<W>(
      len,
      [&](size_t i) {
        return HappinessV(Load<V>(smax + i), Load<V>(best + j0 + i), epsv);
      },
      [&](size_t i) { return HappinessOf(smax[i], best[j0 + i], eps); });
}

template <size_t W>
void AddHappinessMaxV(const double* const* net, size_t j0, size_t j1,
                      const double* p, size_t d, const double* best,
                      double eps, double* cur) {
  using V = Vec<W>;
  const Row<V> row(p, d);
  const V epsv = Splat<V>(eps);
  const size_t j = SweepDirections<W>(net, j0, j1, row, [&](size_t jj, V s) {
    const V h = HappinessV(s, Load<V>(best + jj), epsv);
    const V c = Load<V>(cur + jj);
    Store(cur + jj, h > c ? h : c);
  });
  AddHappinessMaxScalar(net, j, j1, p, d, best, eps, cur);
}

template <size_t W>
double TruncGainCachedV(const Cell* hrow, const double* cur, size_t n,
                        double tau, QuadList quads) {
  using V = Vec<W>;
  const V tauv = Splat<V>(tau);
  return CanonicalSum<W>(
      quads, n,
      [&](size_t j) {
        const V c = Load<V>(cur + j);
        const V h = CellValuesV<W>(hrow + j);
        return VMin(VMax(c, h), tauv) - VMin(c, tauv);
      },
      [&](size_t j) { return TruncGainTermCached(hrow, cur, j, tau); });
}

template <size_t W>
double TruncGainEvalV(const double* const* net, size_t m, const double* p,
                      size_t d, const double* best, double eps,
                      const double* cur, double tau, QuadList quads) {
  using V = Vec<W>;
  const Row<V> row(p, d);
  const V epsv = Splat<V>(eps);
  const V tauv = Splat<V>(tau);
  return CanonicalSum<W>(
      quads, m,
      [&](size_t j) {
        const V c = Load<V>(cur + j);
        const V h = HappinessV(Dot(net, j, row), Load<V>(best + j), epsv);
        return VMin(VMax(c, h), tauv) - VMin(c, tauv);
      },
      [&](size_t j) {
        return TruncGainTermEval(net, p, d, best, eps, cur, j, tau);
      });
}

template <size_t W>
double TruncSumV(const double* cur, size_t n, double tau) {
  using V = Vec<W>;
  const V tauv = Splat<V>(tau);
  return CanonicalSum<W>(
      n, [&](size_t j) { return VMin(Load<V>(cur + j), tauv); },
      [&](size_t j) { return Min(cur[j], tau); });
}

template <size_t W>
double MinReduceV(const double* x, size_t n) {
  return MinOf<W>(
      n, [&](size_t i) { return Load<Vec<W>>(x + i); },
      [&](size_t i) { return x[i]; });
}

template <size_t W>
void RowSumsV(const double* const* cols, size_t nrows, size_t d,
              double* out) {
  using V = Vec<W>;
  size_t i = 0;
  for (; i + W <= nrows; i += W) {
    V acc = {};
    for (size_t k = 0; k < d; ++k) acc += Load<V>(cols[k] + i);
    Store(out + i, acc);
  }
  for (; i < nrows; ++i) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) s += cols[k][i];
    out[i] = s;
  }
}

/// AnyDominates (Strict) / AnyWeaklyDominates, one row per lane, two
/// W-row blocks per step so the early-exit test (a horizontal OR, once
/// per dimension) is paid per 2W rows. A lane stops mattering once its row
/// is below p somewhere.
template <size_t W, bool Strict>
bool AnyDominatesV(const double* const* cols, size_t nrows, size_t d,
                   const double* p) {
  using V = Vec<W>;
  using M = decltype(V{} < V{});
  size_t r = 0;
  for (; r + 2 * W <= nrows; r += 2 * W) {
    M ge0 = ~M{}, ge1 = ~M{}, gt0 = {}, gt1 = {};
    for (size_t k = 0; k < d && AnyLane(ge0 | ge1); ++k) {
      const V pk = Splat<V>(p[k]);
      const V v0 = Load<V>(cols[k] + r);
      const V v1 = Load<V>(cols[k] + r + W);
      ge0 &= v0 >= pk;
      ge1 &= v1 >= pk;
      gt0 |= v0 > pk;
      gt1 |= v1 > pk;
    }
    if (AnyLane(Strict ? (ge0 & gt0) | (ge1 & gt1) : ge0 | ge1)) return true;
  }
  for (; r < nrows; ++r) {
    if (Strict ? DominatesRow(cols, r, d, p)
               : WeaklyDominatesRow(cols, r, d, p)) {
      return true;
    }
  }
  return false;
}

/// The W-lane kernel table for dispatch level `level`.
template <size_t W>
constexpr KernelTable MakeTable(DispatchLevel level) {
  return {level,          NetBestV<W>,          HappinessRangeV<W>,
          HappinessRangeUpV<W>, MhrRangeV<W>,   AddHappinessMaxV<W>,
          TruncGainCachedV<W>, TruncGainEvalV<W>, TruncSumV<W>,
          MinReduceV<W>,  RowSumsV<W>,          AnyDominatesV<W, true>,
          AnyDominatesV<W, false>};
}

}  // namespace
}  // namespace internal
}  // namespace simd
}  // namespace fairhms

#endif  // FAIRHMS_COMMON_SIMD_KERNELS_H_
