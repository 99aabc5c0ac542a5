// bench_kernel: the evaluator's three hot ops — net_build (the per-direction
// denominator precompute), cache_fill (the candidates x directions cell
// matrix) and mhr_sweep (batched min-over-net sweeps of one solution) — in
// three named passes over the same anti-correlated data, net and candidates:
//
//   legacy  — the pre-refactor loops (one Dot() chain per direction),
//             frozen here as the baseline, one thread;
//   scalar  — the kernel layer with FAIRHMS_SIMD=off semantics
//             (SetMode(kOff)), one thread;
//   simd    — the kernel layer at the host's best dispatch level, once at
//             every --threads entry (the parallel evaluation engine).
//
// Every pass of an op must produce the same checksum, so the CSV doubles
// as a legacy-vs-scalar-vs-SIMD and serial-vs-parallel bit-identity check.
// The candidate cache holds 16-bit fixed-point cells rounded up, so the
// legacy pass digests its double row after the same rounding.
//
// A fourth op, gain_bound, times the lazy greedy's bound refresh: the
// cell-cache gain bound of every candidate row, on a set whose happiness
// leaves ~10% of the directions below tau, in two passes at one thread:
//
//   full — every quad (4-direction group) listed, as on a fresh set;
//   live — only the quads with a direction below tau, as
//          TruncatedMhrState lists them (same bits: dead quads add +0.0).
//
//   bench_kernel --n=10000 --dim=6 --net=20000 --k=20 --threads=1,2,4 |
//     bench_to_json --out=BENCH_kernel.json
//       --gate='cache_fill:simd/legacy>=3,mhr_sweep:simd@4/simd@1>=1.5'

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace {

constexpr double kEps = NetEvaluator::kDegenerate;

template <typename T>
std::string DigestOf(const T* values, size_t count) {
  bench::Digest digest;
  digest.Add(values, count);
  return digest.str();
}

// ---------------------------------------------------------------------------
// The legacy pass: the pre-refactor implementations, frozen. One
// UtilityNet::DotWith (Dot()'s chain, read from the net's columns) per
// (direction, row), per-row division in the sweep.

void LegacyNetBuild(const Dataset& data, const UtilityNet& net,
                    const std::vector<int>& rows, std::vector<double>* best) {
  const size_t m = net.size();
  best->assign(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    double b = 0.0;
    for (int r : rows) {
      b = std::max(b, net.DotWith(j, data.point(static_cast<size_t>(r))));
    }
    (*best)[j] = b;
  }
}

void LegacyHappinessRow(const Dataset& data, const UtilityNet& net,
                        const std::vector<double>& best, int row,
                        double* out) {
  const size_t m = net.size();
  const double* p = data.point(static_cast<size_t>(row));
  for (size_t j = 0; j < m; ++j) {
    if (best[j] <= kEps) {
      out[j] = 1.0;
    } else {
      out[j] = std::min(1.0, net.DotWith(j, p) / best[j]);
    }
  }
}

double LegacyMhr(const Dataset& data, const UtilityNet& net,
                 const std::vector<double>& best,
                 const std::vector<int>& rows) {
  const size_t m = net.size();
  double mhr = 1.0;
  for (size_t j = 0; j < m; ++j) {
    double hr;
    if (best[j] <= kEps) {
      hr = 1.0;
    } else {
      hr = 0.0;
      for (int r : rows) {
        const double s = net.DotWith(j, data.point(static_cast<size_t>(r)));
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
  bench::Harness harness(flags, "kernel");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const size_t net_size = static_cast<size_t>(flags.GetInt("net", 20000));
  const int k = flags.GetInt("k", 20);
  const int sweep_iters = flags.GetInt("sweep_iters", 50);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const size_t cand_target = static_cast<size_t>(flags.GetInt("cand", 1000));
  const std::vector<int> threads = harness.Ints("threads", "1,2,4");
  if (!harness.Start(StrFormat(
          "n=%zu dim=%d net=%zu k=%d cand=%zu sweep_iters=%d seed=%llu",
          n, dim, net_size, k, cand_target, sweep_iters,
          static_cast<unsigned long long>(seed)))) {
    return 1;
  }

  Rng rng(seed);
  const Dataset data = GenAntiCorrelated(n, dim, &rng).NormalizedMinMax();
  const std::vector<int> skyline = ComputeSkyline(data);
  // A strided candidate subset within the default CacheCandidates budget
  // (anti-correlated skylines are ~0.9 n), and a spread-out solution of
  // size k: the sweep every greedy algorithm pays per evaluation.
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
  // A single sweep is a few milliseconds, too noisy to gate on, so each
  // timed mhr_sweep batches `sweep_iters` of them.
  auto time_sweeps = [&](bench::Rep& rep, auto&& mhr_of) {
    double mhr = 0.0;
    Stopwatch sw;
    for (int it = 0; it < sweep_iters; ++it) mhr = mhr_of();
    rep.Add("mhr_sweep", sw.ElapsedMillis());
    return StrFormat("%.17g", mhr);
  };

  std::vector<double> legacy_best;
  LegacyNetBuild(data, net, skyline, &legacy_best);
  const bool legacy_ok =
      harness.Pass("legacy", 1, [&](bench::Rep& rep) {
        std::vector<double> best;
        Stopwatch sw;
        LegacyNetBuild(data, net, skyline, &best);
        rep.Add("net_build", sw.ElapsedMillis());
        return DigestOf(best.data(), best.size());
      }) &&
      harness.Pass("legacy", 1, [&](bench::Rep& rep) {
        // The allocation is timed on purpose: the pre-refactor
        // CacheCandidates resized its matrix inside the call, paying
        // zero-init plus first-touch page faults per build. The kernel
        // passes recycle it through the scratch pool, which is part of
        // the measured improvement.
        Stopwatch sw;
        std::vector<double> cache(cand_rows.size() * net_size);
        for (size_t i = 0; i < cand_rows.size(); ++i) {
          LegacyHappinessRow(data, net, legacy_best, cand_rows[i],
                             &cache[i * net_size]);
        }
        rep.Add("cache_fill", sw.ElapsedMillis());
        // The kernel passes cache ceil(h * 2^15) cells; digest the first
        // row after the same rounding so the checksums compare bits.
        std::vector<simd::Cell> first_row(net_size);
        for (size_t j = 0; j < net_size; ++j) {
          first_row[j] =
              static_cast<simd::Cell>(std::ceil(cache[j] * simd::kCellScale));
        }
        return DigestOf(first_row.data(), net_size);
      }) &&
      harness.Pass("legacy", 1, [&](bench::Rep& rep) {
        return time_sweeps(
            rep, [&] { return LegacyMhr(data, net, legacy_best, solution); });
      });
  if (!legacy_ok) return 1;

  // One kernel-layer pass at `t` threads under the current SIMD mode.
  auto kernel_pass = [&](const char* pass, int t) {
    const NetEvaluator eval(&data, &net, skyline, t);
    return harness.Pass(pass, t, [&](bench::Rep& rep) {
             Stopwatch sw;
             const NetEvaluator built(&data, &net, skyline, t);
             rep.Add("net_build", sw.ElapsedMillis());
             return DigestOf(built.best_data(), net_size);
           }) &&
           harness.Pass(pass, t, [&](bench::Rep& rep) {
             NetEvaluator fresh(&data, &net, skyline, t);
             Stopwatch sw;
             fresh.CacheCandidates(cand_rows);
             rep.Add("cache_fill", sw.ElapsedMillis());
             const simd::Cell* row = fresh.cached_row(cand_rows.front());
             return row != nullptr ? DigestOf(row, net_size) : "uncached";
           }) &&
           harness.Pass(pass, t, [&](bench::Rep& rep) {
             return time_sweeps(rep, [&] { return eval.Mhr(solution); });
           });
  };
  simd::SetMode(simd::SimdMode::kOff);
  if (!kernel_pass("scalar", 1)) return 1;
  simd::SetMode(simd::SimdMode::kAuto);
  for (int t : threads) {
    if (!kernel_pass("simd", t)) return 1;
  }

  // gain_bound: the solution's happiness per direction as the set, and tau
  // its 10% quantile, so ~10% of the directions are still below tau.
  NetEvaluator cached(&data, &net, skyline, 1);
  cached.CacheCandidates(cand_rows);
  simd::AlignedVector cur(net_size, 0.0);
  for (int row : solution) {
    simd::AddHappinessMax(cached.net_columns().cols(), 0, net_size,
                          data.point(static_cast<size_t>(row)),
                          static_cast<size_t>(dim), cached.best_data(), kEps,
                          cur.data());
  }
  std::vector<double> sorted(cur.begin(), cur.end());
  std::sort(sorted.begin(), sorted.end());
  const double tau = sorted[net_size / 10];
  std::vector<uint32_t> every;
  simd::AllQuads(net_size, &every);
  std::vector<uint32_t> live = every;
  simd::DropDeadQuads(cur.data(), tau, &live);
  auto bound_pass = [&](const char* pass, const std::vector<uint32_t>& quads) {
    return harness.Pass(pass, 1, [&](bench::Rep& rep) {
      std::vector<double> bounds(cand_rows.size());
      Stopwatch sw;
      for (int it = 0; it < sweep_iters; ++it) {
        for (size_t i = 0; i < cand_rows.size(); ++i) {
          bounds[i] = simd::TruncGainCached(cached.cached_row(cand_rows[i]),
                                            cur.data(), net_size, tau,
                                            {quads.data(), quads.size()});
        }
      }
      rep.Add("gain_bound", sw.ElapsedMillis());
      return DigestOf(bounds.data(), bounds.size());
    });
  };
  return bound_pass("full", every) && bound_pass("live", live) ? 0 : 1;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
