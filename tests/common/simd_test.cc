// Bit-identity and dispatch tests for the common/simd.h kernel layer.
//
// The layer's contract is that every kernel produces *bitwise identical*
// results at every dispatch level. The kernel tests run every table the
// build contains and the host can run (simd::internal::RunnableKernels():
// W = 2 and, on AVX2 hosts, W = 4) against the scalar reference, over
// shapes chosen to hit every code path — sub-lane sizes, unaligned starts
// and tails, full tiles — and over value sets with the classic
// floating-point traps: ±0.0, denormals, exact duplicates and all-zero
// rows. The evaluator tests then flip the public mode (off vs auto) end to
// end. On a scalar-only host the comparisons are trivially true.

#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd_kernels.h"
#include "common/string_util.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

using simd::internal::KernelTable;
using testing::MakeDataset;
using testing::CellUpReference;
using testing::CellValueReference;

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equality of two sequences of doubles or cells.
template <typename T>
::testing::AssertionResult BitsEqual(const std::vector<T>& a,
                                     const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << "bit mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Restores auto mode when a test body returns or fails.
struct ModeGuard {
  ~ModeGuard() { simd::SetMode(simd::SimdMode::kAuto); }
};

/// Nonnegative coordinates with deliberate traps: exact zeros, negative
/// zeros (legal: -0.0 < 0.0 is false, so validation admits it), denormals,
/// and exact duplicates of earlier entries.
double TrapValue(Rng* rng) {
  switch (rng->UniformInt(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 5e-324;  // Smallest positive denormal.
    case 3:
      return 1e-310;  // Mid-range denormal.
    default:
      return rng->Uniform();
  }
}

/// Happiness-domain trap values: like TrapValue but never -0.0. Happiness
/// arrays (`cur`, cached rows, denominators) are sums/quotients of
/// non-negative products seeded from +0.0, so -0.0 cannot occur there —
/// that is precisely the domain property that makes the kernels' min/max
/// reductions order-independent (see the contract in common/simd.h).
/// Coordinates MAY carry -0.0 (validation admits it), which the other
/// generators exercise.
double TrapHappiness(Rng* rng) {
  const double v = TrapValue(rng);
  return BitEq(v, -0.0) ? 0.0 : v;
}

/// m directions by d dims, dimension-major, with traps.
simd::ColumnBlock TrapBlock(size_t m, size_t d, Rng* rng) {
  simd::ColumnBlock block(static_cast<int>(d));
  std::vector<double> row(d);
  std::vector<double> prev(d, 0.0);
  for (size_t j = 0; j < m; ++j) {
    if (j > 0 && rng->UniformInt(7) == 0) {
      row = prev;  // Exact duplicate row.
    } else if (rng->UniformInt(11) == 0) {
      std::fill(row.begin(), row.end(), 0.0);  // All-zero row.
    } else {
      for (size_t k = 0; k < d; ++k) row[k] = TrapValue(rng);
    }
    prev = row;
    block.Append(row.data());
  }
  return block;
}

std::vector<double> TrapPoints(size_t n, size_t d, Rng* rng) {
  std::vector<double> pts(n * d);
  for (double& v : pts) v = TrapValue(rng);
  return pts;
}

// 24 exceeds the 16 row coordinates the direction-swept kernels hoist.
const size_t kDims[] = {2, 3, 6, 7, 24};
const size_t kNetSizes[] = {1, 7, 333, simd::kDirTile, 1031};
const size_t kRowCounts[] = {1, 5, 8, 129};

const KernelTable& Scalar() { return *simd::internal::ScalarKernels(); }

/// The runnable tables other than the scalar reference.
std::vector<const KernelTable*> VectorTables() {
  std::vector<const KernelTable*> tables = simd::internal::RunnableKernels();
  tables.erase(tables.begin());
  return tables;
}

std::string Shape(const KernelTable* t, size_t d, size_t m, size_t n) {
  return StrFormat("level=%s d=%zu m=%zu n=%zu",
                   simd::DispatchLevelName(t->level), d, m, n);
}

TEST(SimdModeTest, ParseAcceptsExactlyAutoAndOff) {
  ASSERT_TRUE(simd::ParseSimdMode("auto").ok());
  EXPECT_EQ(*simd::ParseSimdMode("auto"), simd::SimdMode::kAuto);
  ASSERT_TRUE(simd::ParseSimdMode("off").ok());
  EXPECT_EQ(*simd::ParseSimdMode("off"), simd::SimdMode::kOff);
  for (const char* bad : {"", "AUTO", "Off", "on", "avx2", "scalar", "0"}) {
    EXPECT_FALSE(simd::ParseSimdMode(bad).ok()) << bad;
  }
}

TEST(SimdModeTest, ValidateSimdEnvRefusesUnknownValues) {
  // ValidateSimdEnv re-reads the environment on every call (unlike the
  // lazy one-shot consumption in the dispatcher), so it is testable here.
  ::setenv("FAIRHMS_SIMD", "off", 1);
  EXPECT_TRUE(simd::ValidateSimdEnv().ok());
  ::setenv("FAIRHMS_SIMD", "auto", 1);
  EXPECT_TRUE(simd::ValidateSimdEnv().ok());
  ::setenv("FAIRHMS_SIMD", "", 1);
  EXPECT_TRUE(simd::ValidateSimdEnv().ok());
  ::setenv("FAIRHMS_SIMD", "avx512", 1);
  const Status st = simd::ValidateSimdEnv();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("avx512"), std::string::npos);
  ::unsetenv("FAIRHMS_SIMD");
  EXPECT_TRUE(simd::ValidateSimdEnv().ok());
}

TEST(SimdModeTest, OffForcesScalarAndAutoRestoresDetected) {
  ModeGuard guard;
  simd::SetMode(simd::SimdMode::kOff);
  EXPECT_EQ(simd::Mode(), simd::SimdMode::kOff);
  EXPECT_EQ(simd::ActiveLevel(), simd::DispatchLevel::kScalar);
  simd::SetMode(simd::SimdMode::kAuto);
  EXPECT_EQ(simd::Mode(), simd::SimdMode::kAuto);
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
}

TEST(SimdModeTest, LayoutKeyTracksActiveLevel) {
  ModeGuard guard;
  simd::SetMode(simd::SimdMode::kOff);
  const uint32_t off_key = simd::LayoutKey();
  simd::SetMode(simd::SimdMode::kAuto);
  const uint32_t auto_key = simd::LayoutKey();
  if (simd::DetectedLevel() != simd::DispatchLevel::kScalar) {
    EXPECT_NE(off_key, auto_key);
  } else {
    EXPECT_EQ(off_key, auto_key);
  }
  EXPECT_EQ(off_key >> 8, static_cast<uint32_t>(simd::kLayoutVersion));
}

TEST(SimdKernelTest, EveryCompiledWidthIsCompared) {
  // The comparisons below run every table this build contains and the host
  // can run, so the W = 2 body (the NEON table on aarch64) is checked on
  // x86 hosts too, not only the widest one auto mode picks.
  const std::vector<const KernelTable*> tables =
      simd::internal::RunnableKernels();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front()->level, simd::DispatchLevel::kScalar);
#if defined(__SSE2__)
  ASSERT_GE(tables.size(), 2u);
  EXPECT_EQ(tables[1]->level, simd::DispatchLevel::kSse2);
#elif defined(__aarch64__)
  ASSERT_GE(tables.size(), 2u);
  EXPECT_EQ(tables[1]->level, simd::DispatchLevel::kNeon);
#endif
}

TEST(SimdKernelTest, NetBestAndHappinessAndMhrBitIdentical) {
  Rng rng(101);
  for (size_t d : kDims) {
    for (size_t m : kNetSizes) {
      for (size_t n : kRowCounts) {
        const simd::ColumnBlock net = TrapBlock(m, d, &rng);
        const std::vector<double> pts = TrapPoints(n, d, &rng);
        // An offset range too, so vector blocks start off the alignment.
        const size_t j0 = m / 3;
        const size_t mhr_end = std::min(m, j0 + simd::kDirTile);
        std::vector<double> best_ref(m, 0.0), hap_ref(m, 0.0);
        std::vector<simd::Cell> up_ref(m, 0);
        Scalar().net_best(net.cols(), 0, m, pts.data(), n, d, best_ref.data());
        Scalar().happiness_range(net.cols(), j0, m, pts.data(), d,
                                 best_ref.data(), 1e-12, hap_ref.data());
        Scalar().happiness_range_up(net.cols(), j0, m, pts.data(), d,
                                    best_ref.data(), 1e-12, up_ref.data());
        // The cell fill is the double fill rounded up, cell by cell.
        for (size_t j = j0; j < m; ++j) {
          ASSERT_EQ(up_ref[j], CellUpReference(hap_ref[j])) << j;
        }
        const double mhr_ref = Scalar().mhr_range(
            net.cols(), j0, mhr_end, best_ref.data(), 1e-12, pts.data(), n, d);
        for (const KernelTable* t : VectorTables()) {
          std::vector<double> best(m, 0.0), hap(m, 0.0);
          std::vector<simd::Cell> up(m, 0);
          t->net_best(net.cols(), 0, m, pts.data(), n, d, best.data());
          t->happiness_range(net.cols(), j0, m, pts.data(), d, best.data(),
                             1e-12, hap.data());
          t->happiness_range_up(net.cols(), j0, m, pts.data(), d,
                                best.data(), 1e-12, up.data());
          const double mhr = t->mhr_range(net.cols(), j0, mhr_end,
                                          best.data(), 1e-12, pts.data(), n, d);
          SCOPED_TRACE(Shape(t, d, m, n));
          EXPECT_TRUE(BitsEqual(best_ref, best));
          EXPECT_TRUE(BitsEqual(hap_ref, hap));
          EXPECT_TRUE(BitsEqual(up_ref, up));
          EXPECT_TRUE(BitEq(mhr_ref, mhr));
        }
      }
    }
  }
}

TEST(SimdKernelTest, MhrRangeMatchesPerRowDivisionFormulation) {
  Rng rng(202);
  const size_t d = 6, m = 333, n = 40;
  const simd::ColumnBlock net = TrapBlock(m, d, &rng);
  const std::vector<double> pts = TrapPoints(n, d, &rng);
  std::vector<double> best(m, 0.0);
  Scalar().net_best(net.cols(), 0, m, pts.data(), n, d, best.data());
  // Naive max_r min(1, s_r / b) per direction: the kernel hoists the
  // division (max selects an element, division by a positive constant is
  // monotone), which must match bit for bit, not approximately.
  double naive = 1.0;
  for (size_t j = 0; j < m; ++j) {
    double hr;
    if (best[j] <= 1e-12) {
      hr = 1.0;
    } else {
      hr = 0.0;
      for (size_t r = 0; r < n; ++r) {
        double s = 0.0;
        for (size_t k = 0; k < d; ++k) s += net.cols()[k][j] * pts[r * d + k];
        hr = std::max(hr, std::min(1.0, s / best[j]));
      }
    }
    naive = std::min(naive, hr);
  }
  for (const KernelTable* t : simd::internal::RunnableKernels()) {
    const double hoisted =
        t->mhr_range(net.cols(), 0, m, best.data(), 1e-12, pts.data(), n, d);
    EXPECT_TRUE(BitEq(hoisted, naive))
        << simd::DispatchLevelName(t->level) << ": " << hoisted << " vs "
        << naive;
  }
}

TEST(SimdKernelTest, TruncatedGainKernelsBitIdentical) {
  Rng rng(303);
  for (size_t d : kDims) {
    for (size_t m : kNetSizes) {
      const simd::ColumnBlock net = TrapBlock(m, d, &rng);
      const std::vector<double> p = TrapPoints(1, d, &rng);
      std::vector<double> best(m), cur(m), exact(m);
      std::vector<simd::Cell> hrow(m);
      for (double& v : best) v = rng.Uniform();
      for (double& v : cur) v = TrapHappiness(&rng);
      for (size_t j = 0; j < m; ++j) {
        exact[j] = TrapHappiness(&rng);
        hrow[j] = CellUpReference(exact[j]);
      }
      const double tau = 0.85;
      std::vector<uint32_t> all;
      simd::AllQuads(m, &all);
      const simd::QuadList every{all.data(), all.size()};
      // The bound over the rounded-up row is never below the gain over the
      // doubles it was rounded from (the canonical sum over exact terms).
      double exact_gain = 0.0;
      {
        double lanes[4] = {0.0, 0.0, 0.0, 0.0};
        const size_t m4 = m & ~static_cast<size_t>(3);
        for (size_t j = 0; j < m4; ++j) {
          lanes[j % 4] += std::min(std::max(cur[j], exact[j]), tau) -
                          std::min(cur[j], tau);
        }
        exact_gain = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (size_t j = m4; j < m; ++j) {
          exact_gain += std::min(std::max(cur[j], exact[j]), tau) -
                        std::min(cur[j], tau);
        }
      }
      EXPECT_GE(
          Scalar().trunc_gain_cached(hrow.data(), cur.data(), m, tau, every),
          exact_gain);
      // Every kernel of the table in one pass, as bits.
      auto run = [&](const KernelTable& t) {
        std::vector<double> add = cur;
        t.add_happiness_max(net.cols(), 0, m, p.data(), d, best.data(), 1e-12,
                            add.data());
        std::vector<double> out = {
            t.trunc_gain_cached(hrow.data(), cur.data(), m, tau, every),
            t.trunc_gain_eval(net.cols(), m, p.data(), d, best.data(), 1e-12,
                              cur.data(), tau, every),
            t.trunc_sum(cur.data(), m, tau), t.min_reduce(cur.data(), m)};
        out.insert(out.end(), add.begin(), add.end());
        return out;
      };
      const std::vector<double> ref = run(Scalar());
      for (const KernelTable* t : VectorTables()) {
        SCOPED_TRACE(Shape(t, d, m, 1));
        EXPECT_TRUE(BitsEqual(ref, run(*t)));
      }
    }
  }
}

TEST(SimdKernelTest, LiveQuadListsMatchAllQuadsBitForBit) {
  // Leaving out dead quads (every cur[j] >= tau) drops only +0.0 terms, so
  // the live-quad sums equal the all-quads sums bit for bit at every
  // dispatch level; an empty list leaves exactly the tail's sum.
  Rng rng(404);
  const size_t d = 3;
  for (const size_t n : {size_t{0}, size_t{3}, size_t{4}, size_t{7},
                         size_t{203}, size_t{1200}}) {
    const simd::ColumnBlock net = TrapBlock(n, d, &rng);
    const std::vector<double> p = TrapPoints(1, d, &rng);
    std::vector<double> best(n);
    std::vector<simd::Cell> hrow(n);
    for (double& v : best) v = rng.Uniform();
    for (simd::Cell& q : hrow) q = CellUpReference(TrapHappiness(&rng));
    for (const double tau : {0.3, 0.85, 1.0}) {
      for (const char* name : {"dead", "live", "random"}) {
        const std::string mode = name;
        std::vector<double> cur(n);
        for (double& c : cur) {
          const bool dead =
              mode == "dead" || (mode == "random" && rng.UniformInt(10) < 7);
          if (dead) {
            // At tau itself, or above it.
            c = rng.UniformInt(4) == 0 ? tau
                                       : tau + (1.0 - tau) * rng.Uniform();
          } else {
            c = tau * TrapHappiness(&rng);
          }
        }
        std::vector<uint32_t> all;
        simd::AllQuads(n, &all);
        std::vector<uint32_t> live = all;
        simd::DropDeadQuads(cur.data(), tau, &live);
        // The list holds exactly the quads with a direction below tau.
        std::vector<uint32_t> want;
        for (size_t j = 0; j + 4 <= (n & ~size_t{3}); j += 4) {
          if (std::min({cur[j], cur[j + 1], cur[j + 2], cur[j + 3]}) < tau) {
            want.push_back(static_cast<uint32_t>(j));
          }
        }
        ASSERT_EQ(live, want);
        if (mode == "dead") {
          EXPECT_TRUE(live.empty());
        } else if (mode == "live") {
          EXPECT_EQ(live, all);
        }
        // The tail alone, summed in order from +0.0.
        double tail_cached = 0.0, tail_eval = 0.0;
        for (size_t j = n & ~size_t{3}; j < n; ++j) {
          double s = 0.0;
          for (size_t k = 0; k < d; ++k) s += p[k] * net.cols()[k][j];
          const double h =
              best[j] <= 1e-12 ? 1.0 : std::min(1.0, s / best[j]);
          const double cell = CellValueReference(hrow[j]);
          tail_cached += std::min(std::max(cur[j], cell), tau) -
                         std::min(cur[j], tau);
          tail_eval += std::min(std::max(cur[j], h), tau) -
                       std::min(cur[j], tau);
        }
        const simd::QuadList every{all.data(), all.size()};
        const simd::QuadList listed{live.data(), live.size()};
        const simd::QuadList none{};
        const double ref_cached = Scalar().trunc_gain_cached(
            hrow.data(), cur.data(), n, tau, every);
        const double ref_eval =
            Scalar().trunc_gain_eval(net.cols(), n, p.data(), d, best.data(),
                                     1e-12, cur.data(), tau, every);
        for (const KernelTable* t : simd::internal::RunnableKernels()) {
          SCOPED_TRACE(::testing::Message()
                       << Shape(t, d, n, 1) << " tau=" << tau
                       << " cur=" << mode);
          for (const simd::QuadList quads : {every, listed}) {
            EXPECT_TRUE(BitEq(ref_cached,
                              t->trunc_gain_cached(hrow.data(), cur.data(), n,
                                                   tau, quads)));
            EXPECT_TRUE(BitEq(
                ref_eval, t->trunc_gain_eval(net.cols(), n, p.data(), d,
                                             best.data(), 1e-12, cur.data(),
                                             tau, quads)));
          }
          EXPECT_TRUE(BitEq(tail_cached,
                            t->trunc_gain_cached(hrow.data(), cur.data(), n,
                                                 tau, none)));
          EXPECT_TRUE(BitEq(tail_eval,
                            t->trunc_gain_eval(net.cols(), n, p.data(), d,
                                               best.data(), 1e-12, cur.data(),
                                               tau, none)));
        }
      }
    }
  }
}

TEST(SimdKernelTest, HappinessRangeUpStoresFixedPointCeiling) {
  // One attribute, p = 1 and best = 1, so direction j's happiness is
  // exactly its coordinate h_j and the fill must store ceil(h_j * 2^15).
  const double ulp = simd::kCellUlp;
  std::vector<double> h = {
      0.0,
      1.0,
      std::nextafter(1.0, 0.0),  // Rounds up to 1, not past it.
      1.0 - std::ldexp(1.0, -16),
      std::ldexp(1.0, -16),      // Inside (0, 2^-15): cell 1.
      1e-300,
      5e-324,                    // Smallest denormal double.
      std::nextafter(ulp, 0.0),
      1.0 / 3.0,
  };
  for (const double k : {1.0, 2.0, 3.0, 1000.0, 16383.0, 16384.0, 32767.0}) {
    h.push_back(k * ulp);                       // Exact: cell k.
    h.push_back(std::nextafter(k * ulp, 2.0));  // Just above: k + 1.
  }
  Rng rng(505);
  while (h.size() < 1031) h.push_back(rng.Uniform());
  const size_t m = h.size();
  simd::ColumnBlock net(1);
  for (const double v : h) net.Append(&v);
  const double one = 1.0;
  const std::vector<double> best(m, 1.0);
  for (const size_t j0 : {size_t{0}, size_t{3}}) {
    std::vector<simd::Cell> ref(m, 0);
    Scalar().happiness_range_up(net.cols(), j0, m, &one, 1, best.data(),
                                1e-12, ref.data());
    for (size_t j = j0; j < m; ++j) {
      ASSERT_EQ(ref[j], CellUpReference(h[j])) << "j=" << j << " h=" << h[j];
      const double value = CellValueReference(ref[j]);
      // value - h < 2^-15, spelled exactly: value - 2^-15 is a multiple of
      // 2^-15 in [-2^-15, 1), while value - h rounds for tiny h.
      ASSERT_GE(value, h[j]) << j;
      ASSERT_LT(value - ulp, h[j]) << j;
    }
    for (const KernelTable* t : VectorTables()) {
      SCOPED_TRACE(simd::DispatchLevelName(t->level));
      std::vector<simd::Cell> out(m, 0);
      t->happiness_range_up(net.cols(), j0, m, &one, 1, best.data(), 1e-12,
                            out.data());
      EXPECT_TRUE(BitsEqual(ref, out));
    }
  }
  EXPECT_EQ(CellUpReference(0.0), 0);
  EXPECT_EQ(CellUpReference(1.0), simd::kCellOne);
  EXPECT_EQ(CellUpReference(1.0 - std::ldexp(1.0, -16)), simd::kCellOne);
  EXPECT_EQ(CellUpReference(5e-324), 1);
  EXPECT_EQ(CellUpReference(3.0 * ulp), 3);
  EXPECT_EQ(CellUpReference(std::nextafter(3.0 * ulp, 1.0)), 4);
  EXPECT_EQ(CellValueReference(simd::kCellOne), 1.0);
}

TEST(SimdKernelTest, TruncGainCapIsCachedGainOverAllOnesRow) {
  Rng rng(606);
  for (size_t m : kNetSizes) {
    std::vector<double> cur(m);
    for (double& v : cur) v = TrapHappiness(&rng);
    const std::vector<simd::Cell> ones(m, simd::kCellOne);
    std::vector<uint32_t> all;
    simd::AllQuads(m, &all);
    for (const double tau : {0.0, 0.3, 0.85, 1.0, 1.5}) {
      const double cap = simd::TruncGainCap(cur.data(), m, tau);
      for (const KernelTable* t : simd::internal::RunnableKernels()) {
        SCOPED_TRACE(Shape(t, 1, m, 1));
        EXPECT_TRUE(BitEq(cap, t->trunc_gain_cached(ones.data(), cur.data(),
                                                    m, tau,
                                                    {all.data(), all.size()})));
      }
    }
  }
}

TEST(SimdKernelTest, MinReduceOfEmptyIsOne) {
  for (const KernelTable* t : simd::internal::RunnableKernels()) {
    EXPECT_EQ(t->min_reduce(nullptr, 0), 1.0);
  }
}

TEST(SimdKernelTest, RowSumsAndDominanceBitIdentical) {
  Rng rng(404);
  for (size_t d : kDims) {
    for (size_t n : kRowCounts) {
      const simd::ColumnBlock block = TrapBlock(n, d, &rng);
      // Probe points: fresh traps, exact copies of block rows (a point
      // never strictly dominates its duplicate), and all-zeros.
      std::vector<std::vector<double>> probes;
      probes.push_back(TrapPoints(1, d, &rng));
      std::vector<double> dup(d);
      for (size_t k = 0; k < d; ++k) dup[k] = block.cols()[k][n / 2];
      probes.push_back(dup);
      probes.emplace_back(d, 0.0);
      auto run = [&](const KernelTable& t, std::vector<double>* sums,
                     std::vector<int>* dom, std::vector<int>* weak) {
        sums->assign(block.padded_rows(), 0.0);
        t.row_sums(block.cols(), n, d, sums->data());
        for (const auto& p : probes) {
          dom->push_back(t.any_dominates(block.cols(), n, d, p.data()));
          weak->push_back(t.any_weak_dominates(block.cols(), n, d, p.data()));
        }
      };
      std::vector<double> sums_ref;
      std::vector<int> dom_ref, weak_ref;
      run(Scalar(), &sums_ref, &dom_ref, &weak_ref);
      // A duplicate of a block row is weakly dominated but never strictly
      // dominated by that row (it can still be strictly dominated by some
      // other row, so only the weak direction is asserted).
      EXPECT_TRUE(weak_ref[1]);
      for (const KernelTable* t : VectorTables()) {
        std::vector<double> sums;
        std::vector<int> dom, weak;
        run(*t, &sums, &dom, &weak);
        SCOPED_TRACE(Shape(t, d, 0, n));
        EXPECT_TRUE(BitsEqual(sums_ref, sums));
        EXPECT_EQ(dom_ref, dom);
        EXPECT_EQ(weak_ref, weak);
      }
    }
  }
}

TEST(SimdKernelTest, DominancePaddingIsNeverAWitness) {
  // Three all-zero rows (padded out to kPadRows with more zeros). An
  // all-zero probe is weakly dominated by the real rows, but nothing
  // strictly dominates it — if a vector path read the zero padding as
  // data the strict check would still be false, but an n=0 block must
  // return false for both even though its padding compares >= everywhere.
  const size_t d = 3;
  simd::ColumnBlock block(static_cast<int>(d));
  const std::vector<double> zero(d, 0.0);
  for (int i = 0; i < 3; ++i) block.Append(zero.data());
  // Zero rows, padded capacity present: no witness of any kind.
  simd::ColumnBlock empty(static_cast<int>(d));
  empty.ResizeRows(0);
  for (const KernelTable* t : simd::internal::RunnableKernels()) {
    SCOPED_TRACE(simd::DispatchLevelName(t->level));
    EXPECT_FALSE(t->any_dominates(block.cols(), 3, d, zero.data()));
    EXPECT_TRUE(t->any_weak_dominates(block.cols(), 3, d, zero.data()));
    EXPECT_FALSE(t->any_dominates(empty.cols(), 0, d, zero.data()));
    EXPECT_FALSE(t->any_weak_dominates(empty.cols(), 0, d, zero.data()));
  }
}

// ---------------------------------------------------------------------------
// Evaluator-level identity: the same solves, end to end, in both modes.

struct EvalProbe {
  std::vector<double> best;
  std::vector<simd::Cell> cached;
  double mhr = 0.0;
  double gain = 0.0;
  double bound = 0.0;
  double gain_uncached = 0.0;
  double value = 0.0;
  double net_mhr = 0.0;
  std::vector<int> skyline;
  std::vector<double> regrets;
};

EvalProbe RunPipeline(const Dataset& data, const std::vector<int>& rows,
                      int threads) {
  Rng rng(77);
  const UtilityNet net =
      UtilityNet::SampleRandom(data.dim(), 222, &rng);
  EvalProbe out;
  NetEvaluator eval(&data, &net, rows, threads);
  out.best.assign(eval.best_data(), eval.best_data() + net.size());
  std::vector<int> half(rows.begin(), rows.begin() + rows.size() / 2 + 1);
  eval.CacheCandidates(half);
  out.cached.assign(eval.cached_row(half[0]),
                    eval.cached_row(half[0]) + net.size());
  out.mhr = eval.Mhr(half);
  TruncatedMhrState state(&eval);
  state.Add(half[0]);
  out.gain = state.MarginalGain(half.back(), 0.9);
  out.bound = state.GainBound(half.back(), 0.9);
  out.gain_uncached = state.MarginalGain(rows.back(), 0.9);
  state.Add(rows.back());
  out.value = state.TruncatedValue(0.9);
  out.net_mhr = state.NetMhr();
  out.skyline = ComputeSkyline(data, rows, {});
  out.regrets = AllWitnessRegretsLp(data, rows, half, threads);
  return out;
}

TEST(SimdEvaluatorTest, PipelineBitIdenticalAcrossModesAndThreads) {
  ModeGuard guard;
  Rng rng(55);
  Dataset data = GenIndependent(160, 6, &rng).NormalizedMinMax();
  // Tombstones: erase a slice so every pack path sees non-contiguous rows.
  ASSERT_TRUE(data.ErasePoints({3, 4, 5, 50, 119}).ok());
  const std::vector<int> rows = data.LiveRows();

  simd::SetMode(simd::SimdMode::kOff);
  const EvalProbe ref = RunPipeline(data, rows, /*threads=*/1);
  for (int threads : {1, 3}) {
    for (simd::SimdMode mode :
         {simd::SimdMode::kOff, simd::SimdMode::kAuto}) {
      simd::SetMode(mode);
      const EvalProbe got = RunPipeline(data, rows, threads);
      SCOPED_TRACE(StrFormat("threads=%d mode=%s", threads,
                             simd::SimdModeName(mode)));
      EXPECT_TRUE(BitsEqual(ref.best, got.best));
      EXPECT_TRUE(BitsEqual(ref.cached, got.cached));
      EXPECT_TRUE(BitEq(ref.mhr, got.mhr));
      EXPECT_TRUE(BitEq(ref.gain, got.gain));
      EXPECT_TRUE(BitEq(ref.bound, got.bound));
      EXPECT_GE(got.bound, got.gain);
      EXPECT_TRUE(BitEq(ref.gain_uncached, got.gain_uncached));
      EXPECT_TRUE(BitEq(ref.value, got.value));
      EXPECT_TRUE(BitEq(ref.net_mhr, got.net_mhr));
      EXPECT_EQ(ref.skyline, got.skyline);
      EXPECT_TRUE(BitsEqual(ref.regrets, got.regrets));
    }
  }
}

TEST(SimdEvaluatorTest, NormalizationBitIdenticalAcrossModes) {
  ModeGuard guard;
  Rng rng(66);
  const Dataset data = GenIndependent(70, 3, &rng);
  simd::SetMode(simd::SimdMode::kOff);
  const Dataset ref_minmax = data.NormalizedMinMax();
  const Dataset ref_max = data.ScaledByMax();
  for (simd::SimdMode mode :
       {simd::SimdMode::kOff, simd::SimdMode::kAuto}) {
    simd::SetMode(mode);
    const Dataset a = data.NormalizedMinMax();
    const Dataset b = data.ScaledByMax();
    for (size_t i = 0; i < 70; ++i) {
      for (int j = 0; j < 3; ++j) {
        // Mode must not change the scaling.
        EXPECT_TRUE(BitEq(a.at(i, j), ref_minmax.at(i, j)));
        EXPECT_TRUE(BitEq(b.at(i, j), ref_max.at(i, j)));
      }
    }
  }
}

TEST(SimdEvaluatorTest, TombstonedNormalizationIgnoresErasedOutlier) {
  ModeGuard guard;
  simd::SetMode(simd::SimdMode::kAuto);
  // Row 2 is an outlier; erased, it must not stretch the live rows' range.
  Dataset data = MakeDataset({{0.2, 0.4}, {0.6, 0.8}, {100.0, 100.0}});
  ASSERT_TRUE(data.ErasePoints({2}).ok());
  const Dataset norm = data.NormalizedMinMax();
  EXPECT_TRUE(BitEq(norm.at(0, 0), 0.0));
  EXPECT_TRUE(BitEq(norm.at(1, 0), 1.0));
  EXPECT_TRUE(BitEq(norm.at(1, 1), 1.0));
}

TEST(ScratchBufferTest, ResizePreservesDataWithinCapacityAndTracksSize) {
  simd::ScratchPoolTrim();
  simd::ScratchBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.ResizeUninitialized(100);
  ASSERT_EQ(buf.size(), 100u);
  for (size_t i = 0; i < 100; ++i) buf[i] = static_cast<simd::Cell>(i);
  // Shrinking and re-growing within capacity must not move the allocation
  // (CacheCandidates relies on rewriting every cell, not on the resize).
  simd::Cell* data = buf.data();
  buf.ResizeUninitialized(10);
  EXPECT_EQ(buf.size(), 10u);
  buf.ResizeUninitialized(100);
  EXPECT_EQ(buf.data(), data);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(buf[i], static_cast<simd::Cell>(i));
  }
}

TEST(ScratchBufferTest, ReleaseRecyclesThroughPool) {
  // A released block serves a later request it fits closely: one of up to
  // an eighth fewer cells.
  simd::ScratchPoolTrim();
  ASSERT_EQ(simd::ScratchPoolIdleBytes(), 0u);
  simd::Cell* first = nullptr;
  {
    simd::ScratchBuffer buf;
    buf.ResizeUninitialized(1 << 12);
    first = buf.data();
  }  // Destructor releases to the pool.
  EXPECT_EQ(simd::ScratchPoolIdleBytes(), (1u << 12) * sizeof(simd::Cell));
  simd::ScratchBuffer reuse;
  reuse.ResizeUninitialized((1 << 12) - (1 << 8));  // 4096 <= 3840 + 480.
  EXPECT_EQ(reuse.data(), first);
  EXPECT_EQ(reuse.capacity(), 1u << 12);
  EXPECT_EQ(simd::ScratchPoolIdleBytes(), 0u);
  reuse.Release();
  simd::ScratchPoolTrim();
  EXPECT_EQ(simd::ScratchPoolIdleBytes(), 0u);
}

TEST(ScratchBufferTest, LargeBlockIsNotHandedToSmallRequest) {
  // A 4x block would hold four times the cells its new owner is charged
  // for; the request maps a block of its own and the big one stays idle.
  simd::ScratchPoolTrim();
  simd::Cell* big = nullptr;
  {
    simd::ScratchBuffer buf;
    buf.ResizeUninitialized(1 << 14);
    big = buf.data();
  }
  simd::ScratchBuffer small;
  small.ResizeUninitialized(1 << 12);
  EXPECT_NE(small.data(), big);
  EXPECT_EQ(small.capacity(), 1u << 12);
  EXPECT_EQ(simd::ScratchPoolIdleBytes(), (1u << 14) * sizeof(simd::Cell));
  // Just past the close-fit bound is still too loose.
  simd::ScratchBuffer loose;
  loose.ResizeUninitialized((1 << 14) * 8 / 9 - 1);
  EXPECT_NE(loose.data(), big);
  simd::ScratchPoolTrim();
}

TEST(ScratchBufferTest, FullPoolDropsOldestIdleBlock) {
  // One more release than the pool holds: the oldest idle block is freed
  // and the new one is pooled, instead of the new one being refused.
  simd::ScratchPoolTrim();
  std::vector<size_t> sizes;
  for (size_t i = 0; i <= simd::kScratchPoolMaxEntries; ++i) {
    sizes.push_back(size_t{1000} << (2 * i));  // Far apart: no cross fits.
  }
  std::vector<simd::Cell*> blocks;
  for (size_t n : sizes) {
    simd::ScratchBuffer buf;
    buf.ResizeUninitialized(n);
    blocks.push_back(buf.data());
  }
  size_t newest_bytes = 0;
  for (size_t i = 1; i < sizes.size(); ++i) {
    newest_bytes += sizes[i] * sizeof(simd::Cell);
  }
  EXPECT_EQ(simd::ScratchPoolIdleBytes(), newest_bytes);
  // The newest blocks are still there to reuse.
  simd::ScratchBuffer newest;
  newest.ResizeUninitialized(sizes.back());
  EXPECT_EQ(newest.data(), blocks.back());
  simd::ScratchBuffer second;
  second.ResizeUninitialized(sizes[1]);
  EXPECT_EQ(second.data(), blocks[1]);
  EXPECT_EQ(simd::ScratchPoolIdleBytes(),
            newest_bytes - (sizes.back() + sizes[1]) * sizeof(simd::Cell));
  newest.Release();
  second.Release();
  simd::ScratchPoolTrim();
}

TEST(ScratchBufferTest, EvaluatorAfterLargerOneChargesCloseToItsBlock) {
  // A candidate cache built right after a larger one was released holds a
  // block within an eighth of the cells it is charged for: a fresh block
  // when the released one is too big, the released one when it fits.
  Rng rng(12);
  const Dataset data = GenAntiCorrelated(120, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 300, &rng);
  std::vector<int> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  const auto charged_cells = [&](const NetEvaluator& eval) {
    return eval.CandidateCacheBytes() - data.size() * sizeof(int64_t);
  };
  for (const size_t later_rows : {30u, 110u}) {
    simd::ScratchPoolTrim();
    {
      NetEvaluator larger(&data, &net, all, 1);
      larger.CacheCandidates(all);
      EXPECT_EQ(larger.CandidateBlockBytes(), charged_cells(larger));
    }
    const std::vector<int> rows(all.begin(),
                                all.begin() + static_cast<long>(later_rows));
    NetEvaluator later(&data, &net, all, 1);
    later.CacheCandidates(rows);
    const size_t charged = charged_cells(later);
    EXPECT_EQ(charged, later_rows * net.size() * sizeof(simd::Cell));
    EXPECT_GE(later.CandidateBlockBytes(), charged) << later_rows;
    EXPECT_LE(later.CandidateBlockBytes(), charged + charged / 8)
        << later_rows;
  }
  simd::ScratchPoolTrim();
}

TEST(ScratchBufferTest, MoveTransfersOwnership) {
  simd::ScratchPoolTrim();
  simd::ScratchBuffer a;
  a.ResizeUninitialized(16);
  for (size_t i = 0; i < 16; ++i) a[i] = 35;
  simd::ScratchBuffer b = std::move(a);
  ASSERT_EQ(b.size(), 16u);
  EXPECT_EQ(b[7], 35);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented.
  simd::ScratchPoolTrim();
}

}  // namespace
}  // namespace fairhms
