#include "core/net_evaluator.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "geom/vec.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;
using testing::CellUpReference;
using testing::CellValueReference;

TEST(NetEvaluatorTest, BestAndHappinessOnAxes) {
  const Dataset data = MakeDataset({{1, 0}, {0, 1}, {0.5, 0.5}});
  const UtilityNet net = UtilityNet::Grid2D(3);  // (0,1), diag, (1,0).
  const NetEvaluator eval(&data, &net, {0, 1, 2});
  // Direction (0,1): best is point 1 with score 1.
  EXPECT_NEAR(eval.best(0), 1.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(eval.PointHappiness(0, 2), 0.5, 1e-12);
  // Direction (1,0): best is point 0.
  EXPECT_NEAR(eval.PointHappiness(2, 0), 1.0, 1e-12);
}

TEST(NetEvaluatorTest, MhrOfFullSetIsOne) {
  Rng rng(3);
  const Dataset data = GenIndependent(100, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 200, &rng);
  std::vector<int> all(100);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  EXPECT_NEAR(eval.Mhr(all), 1.0, 1e-12);
}

TEST(NetEvaluatorTest, MhrEmptySetIsZero) {
  const Dataset data = MakeDataset({{1, 1}});
  const UtilityNet net = UtilityNet::Grid2D(5);
  const NetEvaluator eval(&data, &net, {0});
  EXPECT_DOUBLE_EQ(eval.Mhr({}), 0.0);
}

TEST(NetEvaluatorTest, MhrMonotoneInSubset) {
  Rng rng(5);
  const Dataset data = GenIndependent(50, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 300, &rng);
  std::vector<int> all(50);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  EXPECT_LE(eval.Mhr({0, 1}), eval.Mhr({0, 1, 2, 3}) + 1e-12);
}

TEST(NetEvaluatorTest, CachedRowsMatchUncached) {
  // Every cached cell is ceil(h * 2^15) for the exact happiness h, and
  // caching changes nothing computed: PointHappinessRow stays exact.
  Rng rng(7);
  const Dataset data = GenIndependent(40, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 131, &rng);
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  NetEvaluator eval(&data, &net, all);
  std::vector<std::vector<double>> uncached(40,
                                            std::vector<double>(net.size()));
  for (int row : all) {
    eval.PointHappinessRow(row, uncached[static_cast<size_t>(row)].data());
  }
  eval.CacheCandidates(all);
  std::vector<double> after(net.size());
  for (int row : all) {
    const simd::Cell* cached = eval.cached_row(row);
    ASSERT_NE(cached, nullptr);
    eval.PointHappinessRow(row, after.data());
    for (size_t j = 0; j < net.size(); ++j) {
      const double h = uncached[static_cast<size_t>(row)][j];
      ASSERT_EQ(cached[j], CellUpReference(h)) << "row " << row << " j " << j;
      ASSERT_GE(CellValueReference(cached[j]), h);
      ASSERT_EQ(after[j], h);
    }
  }
  EXPECT_EQ(eval.CandidateCacheBytes(),
            40 * net.size() * sizeof(simd::Cell) + 40 * sizeof(int64_t));
}

TEST(NetEvaluatorTest, CacheSkippedWhenOverBudget) {
  Rng rng(9);
  const Dataset data = GenIndependent(40, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 64, &rng);
  std::vector<int> all(40);
  std::iota(all.begin(), all.end(), 0);
  NetEvaluator eval(&data, &net, all);
  eval.CacheCandidates(all, /*max_entries=*/10);  // 40*64 > 10.
  EXPECT_EQ(eval.cached_row(0), nullptr);
  const size_t bytes = eval.ResidentBytes();
  eval.BuildSeedKeys();  // Nothing cached, nothing seeded.
  EXPECT_FALSE(eval.has_seed_keys());
  EXPECT_EQ(eval.seed_first_row(), -1);
  EXPECT_EQ(eval.seed_key_empty(0), -1.0);
  EXPECT_EQ(eval.ResidentBytes(), bytes);
}

TEST(NetEvaluatorTest, SeedKeysAreTauOneBoundsAroundPlainGreedysFirstPick) {
  // The empty-set seed of a cached row is its fresh GainBound at tau = 1,
  // bit for bit; the first pick is the largest exact gain at tau = 1
  // (smaller row on ties); the after-pick seeds are GainBound at tau = 1
  // once that row is added. Uncached rows have no seed. 16 bytes a row.
  for (uint64_t seed : {41u, 43u, 47u}) {
    Rng rng(seed);
    const Dataset data = GenAntiCorrelated(80, 4, &rng);
    const UtilityNet net = UtilityNet::SampleRandom(4, 203, &rng);
    std::vector<int> all(80);
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> cached;
    for (int r = 79; r >= 0; r -= 3) cached.push_back(r);
    for (int threads : {1, 3}) {
      NetEvaluator eval(&data, &net, all, threads);
      eval.CacheCandidates(cached);
      const size_t bytes = eval.ResidentBytes();
      eval.BuildSeedKeys();
      ASSERT_TRUE(eval.has_seed_keys());
      EXPECT_EQ(eval.ResidentBytes(), bytes + cached.size() * 16);

      const TruncatedMhrState empty(&eval);
      int first = -1;
      double first_gain = -1.0;
      for (int row : cached) {
        const double gain = empty.MarginalGain(row, 1.0);
        if (gain > first_gain || (gain == first_gain && row < first)) {
          first_gain = gain;
          first = row;
        }
      }
      ASSERT_EQ(eval.seed_first_row(), first);
      TruncatedMhrState after(&eval);
      after.Add(first);
      for (int row : all) {
        SCOPED_TRACE(::testing::Message() << "row " << row);
        if (eval.cached_row(row) == nullptr) {
          EXPECT_EQ(eval.seed_key_empty(row), -1.0);
          EXPECT_EQ(eval.seed_key_after_first(row), -1.0);
          continue;
        }
        const double want = empty.GainBound(row, 1.0);
        const double got = eval.seed_key_empty(row);
        EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
        if (row == first) {
          EXPECT_EQ(eval.seed_key_after_first(row), -1.0);
        } else {
          EXPECT_EQ(eval.seed_key_after_first(row), after.GainBound(row, 1.0));
        }
      }
    }
  }
}

TEST(TruncatedMhrStateTest, AddMatchesRecompute) {
  Rng rng(11);
  const Dataset data = GenIndependent(30, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 100, &rng);
  std::vector<int> all(30);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);

  TruncatedMhrState state(&eval);
  std::vector<int> chosen;
  for (int r : {3, 17, 29}) {
    state.Add(r);
    chosen.push_back(r);
  }
  EXPECT_NEAR(state.NetMhr(), eval.Mhr(chosen), 1e-12);
  // Truncated value from scratch.
  const double tau = 0.8;
  double expect = 0.0;
  for (size_t j = 0; j < net.size(); ++j) {
    expect += std::min(eval.Hr(j, chosen), tau);
  }
  expect /= static_cast<double>(net.size());
  EXPECT_NEAR(state.TruncatedValue(tau), expect, 1e-12);
}

TEST(TruncatedMhrStateTest, MarginalGainMatchesValueDelta) {
  Rng rng(13);
  const Dataset data = GenIndependent(25, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 80, &rng);
  std::vector<int> all(25);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);

  const double tau = 0.9;
  TruncatedMhrState state(&eval);
  state.Add(0);
  state.Add(5);
  const double before = state.TruncatedValue(tau);
  const double gain = state.MarginalGain(10, tau);
  state.Add(10);
  EXPECT_NEAR(state.TruncatedValue(tau), before + gain, 1e-12);
}

TEST(TruncatedMhrStateTest, GainNonnegativeAndMonotone) {
  Rng rng(17);
  const Dataset data = GenIndependent(20, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 60, &rng);
  std::vector<int> all(20);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  TruncatedMhrState state(&eval);
  for (int r = 0; r < 20; ++r) {
    EXPECT_GE(state.MarginalGain(r, 0.7), 0.0);
  }
}

// Submodularity of mhr_tau (paper Lemma 4.3): gains diminish as the set
// grows. Property-tested on random instances.
TEST(TruncatedMhrStateTest, SubmodularityProperty) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const Dataset data = GenIndependent(30, 3, &rng);
    const UtilityNet net = UtilityNet::SampleRandom(3, 50, &rng);
    std::vector<int> all(30);
    std::iota(all.begin(), all.end(), 0);
    const NetEvaluator eval(&data, &net, all);
    const double tau = 0.5 + 0.5 * rng.Uniform();

    // S1 subset of S2, p outside S2.
    TruncatedMhrState s1(&eval);
    TruncatedMhrState s2(&eval);
    for (int r : {1, 2, 3}) {
      s1.Add(r);
      s2.Add(r);
    }
    for (int r : {4, 5, 6, 7}) s2.Add(r);
    for (int p = 8; p < 30; ++p) {
      EXPECT_GE(s1.MarginalGain(p, tau), s2.MarginalGain(p, tau) - 1e-12)
          << "trial " << trial << " p " << p;
    }
  }
}

/// The canonical sum of the truncated gain terms over every direction, in
/// the kernel layer's order (four lanes striped j % 4, combined as
/// (p0 + p1) + (p2 + p3), tail after), over m: the reference for a state's
/// gains, with no quad list.
double FullRowGain(const std::vector<double>& cur,
                   const std::vector<double>& h, double tau) {
  const size_t m = cur.size();
  const auto term = [&](size_t j) {
    return std::min(std::max(cur[j], h[j]), tau) - std::min(cur[j], tau);
  };
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  const size_t m4 = m & ~static_cast<size_t>(3);
  for (size_t j = 0; j < m4; ++j) lanes[j % 4] += term(j);
  double total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (size_t j = m4; j < m; ++j) total += term(j);
  return total / static_cast<double>(m);
}

TEST(TruncatedMhrStateTest, GainBoundIsAtLeastExactGain) {
  // Cached rows (the even ones) bound the exact gain from above; uncached
  // rows have no cached row, so their bound is the exact gain itself. No
  // bound exceeds GainCap, the gain of a point happy everywhere. After
  // every Add, both equal the full-row reference bit for bit: the state
  // skips only quads whose terms are +0.0.
  for (uint64_t seed : {29u, 31u, 37u}) {
    Rng rng(seed);
    const Dataset data = GenAntiCorrelated(60, 4, &rng);
    const UtilityNet net = UtilityNet::SampleRandom(4, 203, &rng);
    std::vector<int> all(60);
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> even;
    for (int r = 0; r < 60; r += 2) even.push_back(r);
    NetEvaluator eval(&data, &net, all);
    eval.CacheCandidates(even);
    TruncatedMhrState state(&eval);
    // Ascending taus: computed gains and bounds never fall as tau rises,
    // so a key computed at a larger tau bounds the gain at a smaller one.
    const std::vector<double> taus = {0.05, 0.25, 0.5, 0.7, 0.9, 1.0};
    std::vector<double> cur(net.size(), 0.0);
    std::vector<double> h(net.size());
    std::vector<double> cells(net.size());
    // h: `row`'s exact happiness per direction; cells: its bound's terms.
    const auto load_row = [&](int row) {
      eval.PointHappinessRow(row, h.data());
      const simd::Cell* hrow = eval.cached_row(row);
      for (size_t j = 0; j < net.size(); ++j) {
        cells[j] = hrow != nullptr ? CellValueReference(hrow[j]) : h[j];
      }
    };
    for (int step = 0; step < 6; ++step) {
      for (int row : all) {
        load_row(row);
        double prev_exact = -1.0;
        double prev_bound = -1.0;
        for (double tau : taus) {
          const double exact = state.MarginalGain(row, tau);
          const double bound = state.GainBound(row, tau);
          EXPECT_EQ(exact, FullRowGain(cur, h, tau))
              << "row " << row << " tau " << tau;
          EXPECT_EQ(bound, FullRowGain(cur, cells, tau))
              << "row " << row << " tau " << tau;
          if (row % 2 == 0) {
            EXPECT_GE(bound, exact) << "row " << row << " tau " << tau;
          } else {
            EXPECT_EQ(bound, exact) << "row " << row << " tau " << tau;
          }
          EXPECT_LE(prev_exact, exact) << "row " << row << " tau " << tau;
          EXPECT_LE(prev_bound, bound) << "row " << row << " tau " << tau;
          EXPECT_LE(prev_exact, bound) << "row " << row << " tau " << tau;
          EXPECT_LE(bound, state.GainCap(tau))
              << "row " << row << " tau " << tau;
          prev_exact = exact;
          prev_bound = bound;
        }
      }
      // List the quads at 0.25, then Add: the list the Add prunes must
      // still match the reference at that tau.
      (void)state.GainBound(0, 0.25);
      const int added = static_cast<int>(rng.UniformInt(60));
      state.Add(added);
      eval.PointHappinessRow(added, h.data());
      for (size_t j = 0; j < net.size(); ++j) cur[j] = std::max(cur[j], h[j]);
      for (int row : all) {
        load_row(row);
        EXPECT_EQ(state.MarginalGain(row, 0.25), FullRowGain(cur, h, 0.25))
            << "row " << row << " after adding " << added;
        EXPECT_EQ(state.GainBound(row, 0.25), FullRowGain(cur, cells, 0.25))
            << "row " << row << " after adding " << added;
      }
    }
  }
}

TEST(TruncatedMhrStateTest, ResetClearsState) {
  Rng rng(23);
  const Dataset data = GenIndependent(10, 2, &rng);
  const UtilityNet net = UtilityNet::Grid2D(10);
  std::vector<int> all(10);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  TruncatedMhrState state(&eval);
  state.Add(0);
  state.Reset();
  EXPECT_DOUBLE_EQ(state.TruncatedValue(1.0), 0.0);
  EXPECT_DOUBLE_EQ(state.NetMhr(), 0.0);
}

TEST(NetEvaluatorTest, DenominatorUsesDbRowsOnly) {
  // db = {(0.5, 0.5)}; point (1,1) outside db scores happiness capped at 1.
  const Dataset data = MakeDataset({{0.5, 0.5}, {1, 1}});
  const UtilityNet net = UtilityNet::Grid2D(5);
  const NetEvaluator eval(&data, &net, {0});
  EXPECT_NEAR(eval.PointHappiness(2, 1), 1.0, 1e-12);  // Clamped.
  EXPECT_NEAR(eval.PointHappiness(2, 0), 1.0, 1e-12);
}

TEST(NetEvaluatorTest, ResidentBytesAreDenominatorsCellsAndSeedKeysOnly) {
  Rng rng(21);
  const Dataset data = GenAntiCorrelated(300, 4, &rng).NormalizedMinMax();
  const std::vector<int> sky = ComputeSkyline(data);
  const UtilityNet net = UtilityNet::SampleRandom(4, 500, &rng);
  NetEvaluator eval(&data, &net, sky, 2);
  // The kernels read the net's own block in place: no second copy.
  EXPECT_EQ(&eval.net_columns(), &net.columns());
  // Denominators only: no net copy, no packed or listed db rows.
  const size_t denominators = net.size() * sizeof(double);
  EXPECT_EQ(eval.ResidentBytes(), denominators);

  ASSERT_GE(sky.size(), 40u);
  const std::vector<int> cand(sky.begin(), sky.begin() + 40);
  eval.CacheCandidates(cand);
  eval.BuildSeedKeys();
  ASSERT_TRUE(eval.has_seed_keys());
  // Candidate cells plus the per-row offsets, then two seed keys per row.
  const size_t cells = cand.size() * net.size() * sizeof(simd::Cell) +
                       data.size() * sizeof(int64_t);
  EXPECT_EQ(eval.CandidateCacheBytes(), cells);
  EXPECT_EQ(eval.ResidentBytes(),
            denominators + cells + 2 * cand.size() * sizeof(double));
}

TEST(NetEvaluatorTest, PointHappinessReadsTheColumnsLikeDot) {
  // PointHappiness's score is Dot(u_j, p) bit for bit, read from the net's
  // columns.
  Rng rng(23);
  const Dataset data = GenIndependent(50, 5, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(5, 120, &rng);
  std::vector<int> all(50);
  std::iota(all.begin(), all.end(), 0);
  const NetEvaluator eval(&data, &net, all);
  for (size_t j = 0; j < net.size(); ++j) {
    double u[5];
    for (int i = 0; i < 5; ++i) u[i] = net.columns().col(i)[j];
    for (int row : all) {
      const double s = Dot(u, data.point(static_cast<size_t>(row)), 5);
      ASSERT_EQ(eval.PointHappiness(j, row), std::min(1.0, s / eval.best(j)))
          << j << "," << row;
    }
  }
}

}  // namespace
}  // namespace fairhms
