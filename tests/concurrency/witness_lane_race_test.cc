// Races witness-LP sweeps against each other.
//
// Every ParallelFor chunk of a sweep solves its witnesses in one LpProblem
// of its own, Reset per witness. Four caller threads each run G-Greedy-sized
// sweeps at threads = 4 at the same time, so chunks of different calls share
// the process-wide pool's workers; a workspace shared between chunks, or a
// row that survives a Reset into another witness, shows up as a bit
// mismatch against the serial run.

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One sweep's inputs and its serial (threads = 1) answers.
struct Sweep {
  std::vector<int> solution;
  std::vector<double> regrets;
  RegretWitness witness;
};

TEST(WitnessLaneRaceTest, ConcurrentSweepsMatchSerial) {
  Rng rng(83);
  // A 3-d anticorrelated table: a few hundred skyline witnesses per sweep
  // and solutions of 2 to 12 rows, the shape of a G-Greedy pick.
  const Dataset data = GenAntiCorrelated(3000, 3, &rng);
  const std::vector<int> witnesses = ComputeSkyline(data);
  ASSERT_GE(witnesses.size(), 100u);
  std::vector<Sweep> sweeps;
  for (size_t s_size = 2; s_size <= 12; s_size += 2) {
    Sweep sweep;
    for (size_t i = 0; i < s_size; ++i) {
      sweep.solution.push_back(witnesses[(i * 37 + s_size) % witnesses.size()]);
    }
    sweep.regrets = AllWitnessRegretsLp(data, witnesses, sweep.solution, 1);
    sweep.witness = MaxRegretWitnessLp(data, witnesses, sweep.solution, 1);
    sweeps.push_back(std::move(sweep));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int iter = 0; iter < 6; ++iter) {
        const Sweep& sweep =
            sweeps[static_cast<size_t>(c + iter) % sweeps.size()];
        const std::vector<double> regrets =
            AllWitnessRegretsLp(data, witnesses, sweep.solution, 4);
        for (size_t i = 0; i < regrets.size(); ++i) {
          if (!BitEq(regrets[i], sweep.regrets[i])) {
            ++mismatches;
            break;
          }
        }
        const RegretWitness w =
            MaxRegretWitnessLp(data, witnesses, sweep.solution, 4);
        bool same = w.row == sweep.witness.row &&
                    BitEq(w.regret, sweep.witness.regret) &&
                    w.utility.size() == sweep.witness.utility.size();
        for (size_t j = 0; same && j < w.utility.size(); ++j) {
          same = BitEq(w.utility[j], sweep.witness.utility[j]);
        }
        if (!same) ++mismatches;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace fairhms
