#include <algorithm>
#include <cmath>
#include <numeric>

#include "algo/algo_util.h"
#include "algo/baselines.h"
#include "algo/group_adapter.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "geom/vec.h"

namespace fairhms {

namespace {

/// Bounds on the per-axis grid resolution gamma.
constexpr int kMinGridPerAxis = 6;
constexpr int kMaxGridPerAxis = 4096;
/// At most this many matrix values become binary-search candidates
/// (uniformly strided subsample above).
constexpr size_t kMaxThresholdCandidates = 2'000'000;

/// Spherical-coordinate lattice on S^{d-1}_+: gamma steps per angle, all
/// angles in [0, pi/2]. Returns row-major unit vectors.
std::vector<double> AngleGrid(int d, int gamma) {
  const int num_angles = d - 1;
  std::vector<double> dirs;
  std::vector<int> idx(static_cast<size_t>(num_angles), 0);
  std::vector<double> u(static_cast<size_t>(d));
  const double step =
      gamma > 1 ? (3.14159265358979323846 / 2.0) / (gamma - 1) : 0.0;
  for (;;) {
    // Spherical to Cartesian with all angles nonnegative.
    double sin_prod = 1.0;
    for (int a = 0; a < num_angles; ++a) {
      const double theta = idx[static_cast<size_t>(a)] * step;
      u[static_cast<size_t>(a)] = sin_prod * std::cos(theta);
      sin_prod *= std::sin(theta);
    }
    u[static_cast<size_t>(d - 1)] = sin_prod;
    dirs.insert(dirs.end(), u.begin(), u.end());
    // Odometer.
    int a = 0;
    while (a < num_angles && ++idx[static_cast<size_t>(a)] == gamma) {
      idx[static_cast<size_t>(a)] = 0;
      ++a;
    }
    if (a == num_angles) break;
  }
  return dirs;
}

}  // namespace

StatusOr<std::vector<int>> DmmRows(const Dataset& data,
                                   const std::vector<int>& rows, int k,
                                   const DmmOptions& opts) {
  if (rows.empty()) return Status::InvalidArgument("empty candidate set");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int d = data.dim();

  const size_t target = opts.target_net_size > 0
                            ? opts.target_net_size
                            : static_cast<size_t>(10) * k * d;
  int gamma = static_cast<int>(std::ceil(
      std::pow(static_cast<double>(target), 1.0 / std::max(1, d - 1))));
  gamma = std::clamp(gamma, kMinGridPerAxis, kMaxGridPerAxis);

  // The matrix is the method's defining cost: refuse when it cannot fit.
  double m_dirs = 1.0;
  for (int a = 0; a < d - 1; ++a) m_dirs *= gamma;
  const double matrix_bytes = m_dirs * static_cast<double>(rows.size()) *
                              sizeof(float);
  if (matrix_bytes > static_cast<double>(opts.memory_budget_bytes)) {
    return Status::ResourceExhausted(
        StrFormat("DMM matrix needs %.2f GB (gamma=%d, d=%d) — exceeds the "
                  "%.2f GB budget",
                  matrix_bytes / 1e9, gamma, d,
                  static_cast<double>(opts.memory_budget_bytes) / 1e9));
  }

  const std::vector<double> dirs = AngleGrid(d, gamma);
  const size_t m = dirs.size() / static_cast<size_t>(d);
  const size_t n = rows.size();

  // Happiness matrix, point-major: H[i*m + j] = hr(u_j, {p_i}). Raw scores
  // fill per-point slices in parallel over a fixed block partition; each
  // block keeps its own maxima, merged afterwards with exact max, then the
  // normalize pass splits over directions — every value bit-identical for
  // any lane count.
  std::vector<float> happiness(n * m);
  {
    const size_t blocks =
        std::min(n, static_cast<size_t>(ResolveThreads(opts.threads)));
    std::vector<std::vector<double>> block_best(blocks);
    ParallelFor(opts.threads, blocks, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        std::vector<double>& local_best = block_best[b];
        local_best.assign(m, 0.0);
        for (size_t i = n * b / blocks; i < n * (b + 1) / blocks; ++i) {
          const double* p = data.point(static_cast<size_t>(rows[i]));
          for (size_t j = 0; j < m; ++j) {
            const double s = Dot(&dirs[j * static_cast<size_t>(d)], p,
                                 static_cast<size_t>(d));
            happiness[i * m + j] = static_cast<float>(s);
            if (s > local_best[j]) local_best[j] = s;
          }
        }
      }
    });
    std::vector<double> best(m, 0.0);
    for (const std::vector<double>& local_best : block_best) {
      for (size_t j = 0; j < m; ++j) {
        if (local_best[j] > best[j]) best[j] = local_best[j];
      }
    }
    ParallelFor(opts.threads, m, [&](size_t j_begin, size_t j_end) {
      for (size_t j = j_begin; j < j_end; ++j) {
        const float inv = best[j] > 1e-12 ? static_cast<float>(1.0 / best[j])
                                          : 0.0f;
        for (size_t i = 0; i < n; ++i) {
          happiness[i * m + j] =
              inv > 0 ? std::min(1.0f, happiness[i * m + j] * inv) : 1.0f;
        }
      }
    });
  }

  // Threshold candidates: the distinct matrix values (strided subsample when
  // the matrix is huge).
  std::vector<float> cand;
  const size_t total = n * m;
  const size_t stride = std::max<size_t>(1, total / kMaxThresholdCandidates);
  cand.reserve(total / stride + 1);
  for (size_t t = 0; t < total; t += stride) cand.push_back(happiness[t]);
  cand.push_back(1.0f);
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  // Greedy set cover at threshold tau; returns rows or empty when > k sets
  // are needed.
  std::vector<int> all_dirs(m);
  std::iota(all_dirs.begin(), all_dirs.end(), 0);
  auto cover_at = [&](float tau) -> std::vector<int> {
    std::vector<int> picked =
        GreedyCover(n, all_dirs, k, [&](size_t i, int j) {
          return happiness[i * m + static_cast<size_t>(j)] >= tau;
        });
    for (int& i : picked) i = rows[static_cast<size_t>(i)];
    return picked;
  };

  // Binary search the largest feasible threshold.
  std::vector<int> best_rows;
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(cand.size()) - 1;
  while (lo <= hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    std::vector<int> picked = cover_at(cand[static_cast<size_t>(mid)]);
    if (!picked.empty()) {
      best_rows = std::move(picked);
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  if (best_rows.empty()) {
    best_rows = cover_at(0.0f);
    if (best_rows.empty()) best_rows.push_back(rows.front());
  }

  // Pad to k with the best unused rows by attribute sum.
  FillBySum(data, rows, static_cast<size_t>(k), &best_rows);

  std::sort(best_rows.begin(), best_rows.end());
  return best_rows;
}

namespace {

const BaselineRegistrar dmm_registrar([] {
  BaselineSpec spec;
  spec.name = "dmm";
  spec.g_name = "g_dmm";
  spec.display_name = "DMM";
  spec.summary =
      "discretized matrix min-max baseline (unconstrained; memory-bound "
      "above d ~ 6-7)";
  spec.g_summary = "DMM run per group and unioned (fair by quotas)";
  spec.params = {
      {"net_size", ParamType::kInt,
       "target direction count (per-axis grid resolution is derived)",
       "auto (10*k*d)", 1, 1e308, false, false, {}},
      {"memory_budget_bytes", ParamType::kInt,
       "the happiness matrix must fit here, else ResourceExhausted",
       "2000000000", 1, 1e308, false, false, {}},
  };
  spec.make_solver = [](const SolveContext& ctx) -> BaseSolver {
    DmmOptions opts;
    opts.target_net_size = static_cast<size_t>(ctx.params->IntOr(
        "net_size", static_cast<int64_t>(opts.target_net_size)));
    opts.memory_budget_bytes = static_cast<uint64_t>(ctx.params->IntOr(
        "memory_budget_bytes",
        static_cast<int64_t>(opts.memory_budget_bytes)));
    opts.threads = ctx.threads;
    return [opts](const Dataset& d, const std::vector<int>& rows, int k) {
      return DmmRows(d, rows, k, opts);
    };
  };
  return spec;
}());

}  // namespace

namespace internal {
int LinkAlgoDmm() { return 0; }
}  // namespace internal

}  // namespace fairhms
