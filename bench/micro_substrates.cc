// Google-benchmark micro suite for the substrates: LP solver, skyline,
// delta-net sampling, net evaluation (the evaluator build and per-direction
// scores read from the net's column store), BiGreedy on a cached evaluator,
// envelope construction, lazy vs plain greedy. Not a paper artifact — used
// to track library performance.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "algo/bigreedy.h"
#include "common/random.h"
#include "core/artifact_cache.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "geom/envelope2d.h"
#include "lp/simplex.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

void BM_SimplexWitnessLp(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int s_size = static_cast<int>(state.range(1));
  Rng rng(1);
  const Dataset data = GenAntiCorrelated(200, d, &rng);
  std::vector<int> solution(static_cast<size_t>(s_size));
  std::iota(solution.begin(), solution.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxRegretWitnessLp(data, {100}, solution));
  }
}
BENCHMARK(BM_SimplexWitnessLp)->Args({2, 10})->Args({6, 10})->Args({6, 40})
    ->Args({9, 20});

// A G-Greedy pick's witness sweep: 200 witnesses against |S| rows, serial.
// All points lie on the positive unit sphere, so none is weakly dominated
// and every witness solves its LP; one call amortizes the call overhead
// that dominates BM_SimplexWitnessLp. Items are LPs.
void BM_SimplexWitnessSweep(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int s_size = static_cast<int>(state.range(1));
  constexpr int kWitnesses = 200;
  Rng rng(1);
  Dataset data(d);
  std::vector<double> p(static_cast<size_t>(d));
  for (int i = 0; i < kWitnesses + s_size; ++i) {
    double norm = 0.0;
    for (double& v : p) {
      v = std::fabs(rng.Normal()) + 1e-3;
      norm += v * v;
    }
    for (double& v : p) v /= std::sqrt(norm);
    data.AddPoint(p);
  }
  std::vector<int> witnesses(kWitnesses);
  std::iota(witnesses.begin(), witnesses.end(), 0);
  std::vector<int> solution(static_cast<size_t>(s_size));
  std::iota(solution.begin(), solution.end(), kWitnesses);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AllWitnessRegretsLp(data, witnesses, solution, /*threads=*/1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kWitnesses);
}
BENCHMARK(BM_SimplexWitnessSweep)->Args({2, 3})->Args({2, 12})
    ->Args({6, 10});

void BM_Skyline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(2);
  const Dataset data = GenIndependent(n, d, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkyline(data));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Skyline)->Args({10000, 2})->Args({10000, 4})->Args({50000, 4});

void BM_SkylineAntiCorrelated(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  const Dataset data = GenAntiCorrelated(n, 4, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkyline(data));
  }
}
BENCHMARK(BM_SkylineAntiCorrelated)->Arg(2000)->Arg(5000);

void BM_NetSampling(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UtilityNet::SampleRandom(d, m, &rng));
  }
}
BENCHMARK(BM_NetSampling)->Args({6, 1200})->Args({9, 2000});

void BM_NetEvaluatorBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  const Dataset data = GenAntiCorrelated(n, 6, &rng);
  const auto sky = ComputeSkyline(data);
  const UtilityNet net = UtilityNet::SampleRandom(6, 1200, &rng);
  for (auto _ : state) {
    NetEvaluator eval(&data, &net, sky);
    benchmark::DoNotOptimize(eval.best(0));
  }
}
BENCHMARK(BM_NetEvaluatorBuild)->Arg(2000)->Arg(8000);

void BM_PointHappiness(benchmark::State& state) {
  // One direction's score read from the net's columns (UtilityNet::DotWith),
  // the per-(direction, row) path of the Sphere and HS baselines.
  Rng rng(9);
  const Dataset data = GenAntiCorrelated(2000, 6, &rng);
  const auto sky = ComputeSkyline(data);
  const UtilityNet net = UtilityNet::SampleRandom(6, 1200, &rng);
  const NetEvaluator eval(&data, &net, sky);
  size_t j = 0;
  for (auto _ : state) {
    double best = 0.0;
    for (int row : sky) best = std::max(best, eval.PointHappiness(j, row));
    benchmark::DoNotOptimize(best);
    j = (j + 1) % net.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sky.size()));
}
BENCHMARK(BM_PointHappiness);

void BM_TruncatedMarginalGain(benchmark::State& state) {
  Rng rng(6);
  const Dataset data = GenAntiCorrelated(2000, 6, &rng);
  const auto sky = ComputeSkyline(data);
  const UtilityNet net = UtilityNet::SampleRandom(6, 1200, &rng);
  NetEvaluator eval(&data, &net, sky);
  const bool cached = state.range(0) != 0;
  if (cached) eval.CacheCandidates(sky);
  TruncatedMhrState st(&eval);
  st.Add(sky[0]);
  st.Add(sky[1]);
  size_t i = 0;
  // Arg(0): the exact gain from coordinates; Arg(1): the lazy loop's
  // bound over the cached row of cells.
  for (auto _ : state) {
    const int row = sky[i % sky.size()];
    benchmark::DoNotOptimize(cached ? st.GainBound(row, 0.9)
                                    : st.MarginalGain(row, 0.9));
    ++i;
  }
}
BENCHMARK(BM_TruncatedMarginalGain)->Arg(0)->Arg(1);

// One BiGreedyOnNet call on a seeded, cached evaluator built outside the
// timed loop: md_warm's per-round work once its net and evaluator hit the
// cache (anticorrelated n = 20000, d = 6, 3 groups, proportional alpha =
// 0.1, k = 10). Arg: net size m (30 is BiGreedy+'s first round at k = 10,
// 600 the default 10 * k * d). Serial, so the lazy greedy loop dominates.
void BM_BiGreedyOnCachedEvaluator(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(12);
  const Dataset data = GenAntiCorrelated(20000, 6, &rng);
  const Grouping grouping = GroupBySumRank(data, 3);
  const GroupBounds bounds =
      GroupBounds::Proportional(10, grouping.Counts(), 0.1);
  const auto input = PrepareProblem(data, grouping, bounds);
  if (!input.ok()) {
    state.SkipWithError(input.status().ToString().c_str());
    return;
  }
  Rng net_rng(13);
  const auto net = std::make_shared<const UtilityNet>(
      UtilityNet::SampleRandom(6, m, &net_rng));
  const auto eval = GetOrBuildEvaluator(nullptr, data, net, input->db_rows,
                                        input->pool, /*threads=*/1);
  BiGreedyOptions opts;
  opts.threads = 1;
  BiGreedyRunInfo info;
  for (auto _ : state) {
    auto sol = BiGreedyOnNet(*input, eval.get(), opts, &info);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["mrgreedy_calls"] = static_cast<double>(info.mrgreedy_calls);
  state.counters["bound_rows"] = static_cast<double>(info.bound_rows);
  state.counters["exact_gains"] = static_cast<double>(info.exact_gains);
}
BENCHMARK(BM_BiGreedyOnCachedEvaluator)->Arg(30)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_Envelope2DBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<IndexedPoint2> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform(), static_cast<int>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Envelope2D::Build(pts));
  }
}
BENCHMARK(BM_Envelope2DBuild)->Arg(1000)->Arg(100000);

void BM_ExactMhr2D(benchmark::State& state) {
  Rng rng(8);
  const Dataset data = GenAntiCorrelated(10000, 2, &rng);
  const auto sky = ComputeSkyline(data);
  std::vector<int> sol(sky.begin(), sky.begin() + std::min<size_t>(10, sky.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MhrExact2D(data, sky, sol));
  }
}
BENCHMARK(BM_ExactMhr2D);

}  // namespace
}  // namespace fairhms

BENCHMARK_MAIN();
