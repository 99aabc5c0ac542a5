// bench_parallel_eval: speedup harness for the parallel happiness-evaluation
// engine. Times the NetEvaluator denominator precompute, the candidate-cache
// matrix fill, the Mhr net sweep and (optionally) the witness-LP sweep at a
// grid of thread counts, and emits machine-readable CSV for
// tools/bench_to_json:
//
//   # bench=parallel_eval n=10000 dim=6 net=20000 ...
//   op,threads,ms,checksum
//   mhr_sweep,1,84.211,0.73481205...
//
// Each op's checksum is a serial digest of the produced values; it must be
// byte-identical across thread counts (bench_to_json enforces this), which
// turns the bench into a determinism check as well.
//
//   bench_parallel_eval --n=10000 --dim=6 --net=20000 --k=20
//       --threads=1,2,4 --reps=5 [--lp]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/exact_evaluator.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

struct OpResult {
  std::string op;
  int threads = 0;
  double ms = 0.0;
  std::string checksum;
};

/// Serial, order-fixed digest of a value sequence (bit-identical values
/// digest to the same string regardless of how they were computed).
template <typename T>
std::string Digest(const T* values, size_t count) {
  double sum = 0.0;
  double alt = 0.0;  // Position-sensitive companion: catches reorderings.
  for (size_t i = 0; i < count; ++i) {
    const double v = static_cast<double>(values[i]);
    sum += v;
    alt += v * static_cast<double>((i % 64) + 1);
  }
  return StrFormat("%.17g|%.17g", sum, alt);
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const size_t net_size = static_cast<size_t>(flags.GetInt("net", 20000));
  const int k = flags.GetInt("k", 20);
  const int reps = flags.GetInt("reps", 5);
  const int sweep_iters = flags.GetInt("sweep_iters", 50);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const bool with_lp = flags.Has("lp");
  const size_t cand_target = static_cast<size_t>(flags.GetInt("cand", 1000));

  std::vector<int> thread_grid;
  for (const std::string& t :
       Split(flags.GetString("threads", "1,2,4"), ',')) {
    int64_t v = 0;
    if (!ParseInt64(Trim(t), &v) || v < 1) {
      std::fprintf(stderr, "bad --threads entry '%s'\n", t.c_str());
      return 1;
    }
    thread_grid.push_back(static_cast<int>(v));
  }
  if (!bench::CheckFlags(flags, "bench_parallel_eval")) return 1;

  Rng rng(seed);
  const Dataset data = GenAntiCorrelated(n, dim, &rng).NormalizedMinMax();
  const std::vector<int> skyline = ComputeSkyline(data);
  // Cache workload: a strided candidate subset sized to stay within the
  // default CacheCandidates budget (anti-correlated skylines are ~0.9 n).
  std::vector<int> cand_rows;
  const size_t cand_count = std::min(cand_target, skyline.size());
  for (size_t i = 0; i < cand_count; ++i) {
    cand_rows.push_back(skyline[i * skyline.size() / cand_count]);
  }
  Rng net_rng(seed + 1);
  const UtilityNet net = UtilityNet::SampleRandom(dim, net_size, &net_rng);

  // A spread-out solution of size k (evenly strided skyline rows): the
  // Mhr sweep workload every greedy algorithm pays per evaluation.
  std::vector<int> solution;
  for (int i = 0; i < k && !skyline.empty(); ++i) {
    solution.push_back(
        skyline[static_cast<size_t>(i) * skyline.size() / static_cast<size_t>(k)]);
  }

  std::fprintf(stdout,
               "# bench=parallel_eval n=%zu dim=%d net=%zu k=%d cand=%zu "
               "reps=%d sweep_iters=%d seed=%llu hardware_threads=%d "
               "simd=%s\n",
               n, dim, net_size, k, cand_rows.size(), reps, sweep_iters,
               static_cast<unsigned long long>(seed), HardwareThreads(),
               simd::DispatchLevelName(simd::ActiveLevel()));
  std::fprintf(stdout, "op,threads,ms,checksum\n");

  std::vector<OpResult> results;
  for (int threads : thread_grid) {
    // net_build: per-direction denominator precompute over the skyline.
    {
      double best_ms = -1.0;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        Stopwatch sw;
        const NetEvaluator eval(&data, &net, skyline, threads);
        const double ms = sw.ElapsedMillis();
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
        std::vector<double> best(net_size);
        for (size_t j = 0; j < net_size; ++j) best[j] = eval.best(j);
        checksum = Digest(best.data(), best.size());
      }
      results.push_back({"net_build", threads, best_ms, checksum});
    }

    const NetEvaluator eval(&data, &net, skyline, threads);

    // cache_fill: the CacheCandidates matrix (candidates x net directions).
    {
      double best_ms = -1.0;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        NetEvaluator fresh(&data, &net, skyline, threads);
        Stopwatch sw;
        fresh.CacheCandidates(cand_rows);
        const double ms = sw.ElapsedMillis();
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
        const simd::Cell* row = fresh.cached_row(cand_rows.front());
        checksum = row != nullptr ? Digest(row, net_size) : "uncached";
      }
      results.push_back({"cache_fill", threads, best_ms, checksum});
    }

    // mhr_sweep: full min-over-net sweeps for the solution set. A single
    // sweep is a few milliseconds — too noise-prone to gate CI on — so the
    // timed region batches `sweep_iters` of them.
    {
      double best_ms = -1.0;
      double mhr = 0.0;
      for (int r = 0; r < reps; ++r) {
        Stopwatch sw;
        for (int it = 0; it < sweep_iters; ++it) mhr = eval.Mhr(solution);
        const double ms = sw.ElapsedMillis();
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
      }
      results.push_back(
          {"mhr_sweep", threads, best_ms, StrFormat("%.17g", mhr)});
    }

    // witness_lps: one exact LP per skyline witness (F-Greedy's inner loop).
    if (with_lp) {
      double best_ms = -1.0;
      std::string checksum;
      for (int r = 0; r < reps; ++r) {
        Stopwatch sw;
        const std::vector<double> regrets =
            AllWitnessRegretsLp(data, skyline, solution, threads);
        const double ms = sw.ElapsedMillis();
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
        checksum = Digest(regrets.data(), regrets.size());
      }
      results.push_back({"witness_lps", threads, best_ms, checksum});
    }
  }

  for (const OpResult& r : results) {
    std::fprintf(stdout, "%s,%d,%.3f,%s\n", r.op.c_str(), r.threads, r.ms,
                 r.checksum.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
