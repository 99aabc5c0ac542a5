// bench_kernel: single-thread speedup of the SoA + SIMD kernel layer over
// the pre-refactor row-major scalar code, for the three hot evaluator ops.
//
// The CSV reuses bench_to_json's schema with the `threads` column encoding
// the implementation pass instead of a lane count (everything here runs on
// one thread):
//
//   pass 1  legacy   — the pre-refactor loops (row-major Dot() per
//                      direction), inlined here as the frozen baseline;
//   pass 2  scalar   — the kernel layer with FAIRHMS_SIMD=off semantics
//                      (SetMode(kOff)): SoA layout + tiling, no vectors;
//   pass 3  simd     — the kernel layer at the host's best dispatch level
//                      (SetMode(kAuto)).
//
// bench_to_json then does exactly the right thing: "speedup" is
// pass-vs-legacy (over the min of the reps; the median rides along in a
// fifth column), --min_speedup=mhr_sweep:3:3.0 gates the SIMD pass against
// the pre-refactor baseline, and the checksum gate proves all three
// implementations produce bit-identical results. The candidate cache holds
// floats rounded up, so the legacy pass digests its double row after the
// same rounding. The config line carries the host's parallel-capacity
// probe (bench::CapacityProbe).
//
//   bench_kernel --n=10000 --dim=6 --net=20000 --k=20 --reps=5

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "geom/vec.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

constexpr double kEps = NetEvaluator::kDegenerate;

struct OpResult {
  std::string op;
  int pass = 0;
  std::vector<double> ms;  ///< One wall time per rep.
  std::string checksum;
};

/// Serial, order-fixed digest (same scheme as bench_parallel_eval).
template <typename T>
std::string Digest(const T* values, size_t count) {
  double sum = 0.0;
  double alt = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double v = static_cast<double>(values[i]);
    sum += v;
    alt += v * static_cast<double>((i % 64) + 1);
  }
  return StrFormat("%.17g|%.17g", sum, alt);
}

/// The candidate cache's rounding rule: the smallest float >= h.
float RoundUpToFloat(double h) {
  const float f = static_cast<float>(h);
  return static_cast<double>(f) < h
             ? std::nextafter(f, std::numeric_limits<float>::infinity())
             : f;
}

// ---------------------------------------------------------------------------
// Pass 1: the pre-refactor implementations, frozen. Row-major coordinate
// reads, one Dot() per (direction, row), per-row division in the sweep.

void LegacyNetBuild(const Dataset& data, const UtilityNet& net,
                    const std::vector<int>& rows, std::vector<double>* best) {
  const size_t m = net.size();
  const size_t d = static_cast<size_t>(data.dim());
  best->assign(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    double b = 0.0;
    for (int r : rows) {
      b = std::max(b, Dot(net.vec(j), data.point(static_cast<size_t>(r)), d));
    }
    (*best)[j] = b;
  }
}

void LegacyHappinessRow(const Dataset& data, const UtilityNet& net,
                        const std::vector<double>& best, int row,
                        double* out) {
  const size_t m = net.size();
  const size_t d = static_cast<size_t>(data.dim());
  const double* p = data.point(static_cast<size_t>(row));
  for (size_t j = 0; j < m; ++j) {
    if (best[j] <= kEps) {
      out[j] = 1.0;
    } else {
      out[j] = std::min(1.0, Dot(net.vec(j), p, d) / best[j]);
    }
  }
}

double LegacyMhr(const Dataset& data, const UtilityNet& net,
                 const std::vector<double>& best,
                 const std::vector<int>& rows) {
  const size_t m = net.size();
  const size_t d = static_cast<size_t>(data.dim());
  double mhr = 1.0;
  for (size_t j = 0; j < m; ++j) {
    double hr;
    if (best[j] <= kEps) {
      hr = 1.0;
    } else {
      hr = 0.0;
      for (int r : rows) {
        const double s = Dot(net.vec(j), data.point(static_cast<size_t>(r)), d);
        hr = std::max(hr, std::min(1.0, s / best[j]));
      }
    }
    mhr = std::min(mhr, hr);
    if (mhr <= 0.0) break;
  }
  return mhr;
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
  const size_t cand_target = static_cast<size_t>(flags.GetInt("cand", 1000));
  if (!bench::CheckFlags(flags, "bench_kernel")) return 1;

  Rng rng(seed);
  const Dataset data = GenAntiCorrelated(n, dim, &rng).NormalizedMinMax();
  const std::vector<int> skyline = ComputeSkyline(data);
  std::vector<int> cand_rows;
  const size_t cand_count = std::min(cand_target, skyline.size());
  for (size_t i = 0; i < cand_count; ++i) {
    cand_rows.push_back(skyline[i * skyline.size() / cand_count]);
  }
  Rng net_rng(seed + 1);
  const UtilityNet net = UtilityNet::SampleRandom(dim, net_size, &net_rng);
  std::vector<int> solution;
  for (int i = 0; i < k && !skyline.empty(); ++i) {
    solution.push_back(
        skyline[static_cast<size_t>(i) * skyline.size() / static_cast<size_t>(k)]);
  }

  std::fprintf(stdout,
               "# bench=kernel n=%zu dim=%d net=%zu k=%d cand=%zu reps=%d "
               "sweep_iters=%d seed=%llu simd_detected=%s "
               "passes=1:legacy,2:kernel-scalar,3:kernel-simd %s\n",
               n, dim, net_size, k, cand_rows.size(), reps, sweep_iters,
               static_cast<unsigned long long>(seed),
               simd::DispatchLevelName(simd::DetectedLevel()),
               bench::CapacityProbe().c_str());
  std::fprintf(stdout, "op,threads,ms,checksum,ms_median\n");

  std::vector<OpResult> results;
  for (int pass = 1; pass <= 3; ++pass) {
    if (pass == 2) simd::SetMode(simd::SimdMode::kOff);
    if (pass == 3) simd::SetMode(simd::SimdMode::kAuto);

    // net_build: the denominator precompute over the skyline.
    std::vector<double> legacy_best;
    {
      OpResult res{"net_build", pass, {}, {}};
      for (int r = 0; r < reps; ++r) {
        if (pass == 1) {
          Stopwatch sw;
          LegacyNetBuild(data, net, skyline, &legacy_best);
          res.ms.push_back(sw.ElapsedMillis());
          res.checksum = Digest(legacy_best.data(), legacy_best.size());
        } else {
          Stopwatch sw;
          const NetEvaluator eval(&data, &net, skyline, /*threads=*/1);
          res.ms.push_back(sw.ElapsedMillis());
          res.checksum = Digest(eval.best_data(), net_size);
        }
      }
      results.push_back(std::move(res));
    }

    // cache_fill: the candidates x directions happiness matrix.
    {
      OpResult res{"cache_fill", pass, {}, {}};
      for (int r = 0; r < reps; ++r) {
        if (pass == 1) {
          // The allocation is timed on purpose: the pre-refactor
          // CacheCandidates resized its matrix inside the call, paying
          // zero-init plus first-touch page faults per build. The kernel
          // passes recycle the allocation through the scratch pool, which
          // is part of the measured improvement.
          Stopwatch sw;
          std::vector<double> cache(cand_rows.size() * net_size);
          for (size_t i = 0; i < cand_rows.size(); ++i) {
            LegacyHappinessRow(data, net, legacy_best, cand_rows[i],
                               &cache[i * net_size]);
          }
          res.ms.push_back(sw.ElapsedMillis());
          // The kernel passes cache floats rounded up; digest the first
          // row after the same rounding so the checksums compare bits.
          std::vector<float> first_row(net_size);
          for (size_t j = 0; j < net_size; ++j) {
            first_row[j] = RoundUpToFloat(cache[j]);
          }
          res.checksum = Digest(first_row.data(), net_size);
        } else {
          NetEvaluator fresh(&data, &net, skyline, /*threads=*/1);
          Stopwatch sw;
          fresh.CacheCandidates(cand_rows);
          res.ms.push_back(sw.ElapsedMillis());
          const float* row = fresh.cached_row(cand_rows.front());
          res.checksum = row != nullptr ? Digest(row, net_size) : "uncached";
        }
      }
      results.push_back(std::move(res));
    }

    // mhr_sweep: batched full min-over-net sweeps for the solution set.
    {
      OpResult res{"mhr_sweep", pass, {}, {}};
      double mhr = 0.0;
      if (pass == 1) {
        for (int r = 0; r < reps; ++r) {
          Stopwatch sw;
          for (int it = 0; it < sweep_iters; ++it) {
            mhr = LegacyMhr(data, net, legacy_best, solution);
          }
          res.ms.push_back(sw.ElapsedMillis());
        }
      } else {
        const NetEvaluator eval(&data, &net, skyline, /*threads=*/1);
        for (int r = 0; r < reps; ++r) {
          Stopwatch sw;
          for (int it = 0; it < sweep_iters; ++it) mhr = eval.Mhr(solution);
          res.ms.push_back(sw.ElapsedMillis());
        }
      }
      res.checksum = StrFormat("%.17g", mhr);
      results.push_back(std::move(res));
    }
  }

  for (OpResult& r : results) {
    std::sort(r.ms.begin(), r.ms.end());
    const size_t mid = r.ms.size() / 2;
    const double median = r.ms.size() % 2 == 1
                              ? r.ms[mid]
                              : (r.ms[mid - 1] + r.ms[mid]) / 2.0;
    std::fprintf(stdout, "%s,%d,%.3f,%s,%.3f\n", r.op.c_str(), r.pass,
                 r.ms.front(), r.checksum.c_str(), median);
  }
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
