// Bit-identity of the parallel evaluation engine: every evaluator result
// must match the serial (threads = 1) path exactly — not approximately —
// for any thread count.

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

constexpr int kThreadCounts[] = {2, 3, 8};

TEST(ParallelEvalTest, NetEvaluatorBestIsBitIdentical) {
  Rng rng(11);
  const Dataset data = GenAntiCorrelated(400, 5, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(5, 777, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const NetEvaluator parallel(&data, &net, sky, threads);
    for (size_t j = 0; j < net.size(); ++j) {
      ASSERT_EQ(serial.best(j), parallel.best(j))
          << "direction " << j << " at " << threads << " threads";
    }
  }
}

TEST(ParallelEvalTest, MhrIsBitIdentical) {
  Rng rng(13);
  const Dataset data = GenIndependent(500, 4, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(4, 1500, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(10, sky.size()));
  const NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  const double want = serial.Mhr(solution);
  for (int threads : kThreadCounts) {
    const NetEvaluator parallel(&data, &net, sky, threads);
    ASSERT_EQ(want, parallel.Mhr(solution)) << threads << " threads";
  }
}

TEST(ParallelEvalTest, CacheCandidatesIsBitIdentical) {
  Rng rng(17);
  const Dataset data = GenIndependent(300, 3, &rng);
  const UtilityNet net = UtilityNet::SampleRandom(3, 600, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  NetEvaluator serial(&data, &net, sky, /*threads=*/1);
  serial.CacheCandidates(sky);
  for (int threads : kThreadCounts) {
    NetEvaluator parallel(&data, &net, sky, threads);
    parallel.CacheCandidates(sky);
    for (int row : sky) {
      const simd::Cell* a = serial.cached_row(row);
      const simd::Cell* b = parallel.cached_row(row);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_EQ(std::memcmp(a, b, net.size() * sizeof(simd::Cell)), 0)
          << "row " << row << " at " << threads << " threads";
    }
  }
}

TEST(ParallelEvalTest, WitnessRegretsAreBitIdentical) {
  Rng rng(19);
  const Dataset data = GenAntiCorrelated(160, 4, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(6, sky.size()));
  const std::vector<double> want =
      AllWitnessRegretsLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const std::vector<double> got =
        AllWitnessRegretsLp(data, sky, solution, threads);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "witness " << i << " at " << threads
                                 << " threads";
    }
  }
}

TEST(ParallelEvalTest, MaxRegretWitnessIsBitIdentical) {
  Rng rng(23);
  const Dataset data = GenAntiCorrelated(160, 4, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(5, sky.size()));
  const RegretWitness want =
      MaxRegretWitnessLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    const RegretWitness got = MaxRegretWitnessLp(data, sky, solution, threads);
    ASSERT_EQ(want.row, got.row) << threads << " threads";
    ASSERT_EQ(want.regret, got.regret) << threads << " threads";
    ASSERT_EQ(want.utility, got.utility) << threads << " threads";
  }
}

TEST(ParallelEvalTest, MhrExactLpIsBitIdentical) {
  Rng rng(29);
  const Dataset data = GenIndependent(200, 3, &rng);
  const std::vector<int> sky = ComputeSkyline(data);
  const std::vector<int> solution(sky.begin(),
                                  sky.begin() + std::min<size_t>(4, sky.size()));
  const double want = MhrExactLp(data, sky, solution, /*threads=*/1);
  for (int threads : kThreadCounts) {
    ASSERT_EQ(want, MhrExactLp(data, sky, solution, threads))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace fairhms
