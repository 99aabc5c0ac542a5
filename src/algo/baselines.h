// Prior-art RMS/HMS baselines (paper Sec. 5.1), all fairness-unaware.
//
// Every baseline solves vanilla HMS on the sub-database given by `rows`
// (candidate pool, witness set and happiness denominators alike): pass the
// global skyline to reproduce the unconstrained runs of Fig. 3, or one
// group's skyline when driven by the G-adapter (algo/group_adapter.h).
//
//  * RdpGreedyRows — Nanongkai et al. [35]: repeatedly insert the
//    max-regret witness (one LP per skyline item per iteration).
//  * DmmRows — Asudeh et al. [5]: discretized matrix of happiness values
//    over a per-axis angle grid; binary search over thresholds, greedy set
//    cover as the feasibility test. Keeps the full matrix in memory, which
//    is exactly why it dies above d ~ 6-7 (ResourceExhausted), as reported
//    in the paper.
//  * SphereRows — Xie et al. [55]: dimension-extreme points first (requires
//    k >= d), then covers the worst-served sampled directions.
//  * HittingSetRows — Agarwal et al. / Kumar & Sintos [2, 29]: threshold +
//    greedy cover with lazy constraint generation over directions
//    (memory-light).
//
// Each returns the selected rows, sorted; it does not evaluate them. One
// BaselineRegistrar per baseline (algo/group_adapter.h) registers it both
// plain ("rdp_greedy", "dmm", "sphere", "hs": the registration looks up the
// global skyline, solves on it and evaluates the rows with EvaluateMhr,
// violations reported) and G-adapted ("g_greedy", "g_dmm", "g_sphere",
// "g_hs": fair by per-group quotas). Solver::Solve (api/solver.h) is the
// stable entry point.

#ifndef FAIRHMS_ALGO_BASELINES_H_
#define FAIRHMS_ALGO_BASELINES_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "data/dataset.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// Options for RdpGreedyRows.
struct RdpGreedyOptions {
  /// Stop early when the max regret drops below this (remaining slots are
  /// filled with the best unused rows by attribute sum).
  double regret_tolerance = 1e-9;
  /// Witness-LP lanes (0 = DefaultThreads(), 1 = exact serial path); output
  /// is bit-identical across thread counts.
  int threads = 0;
};

/// RDP-Greedy. `rows` must be non-empty; k >= 1.
StatusOr<std::vector<int>> RdpGreedyRows(const Dataset& data,
                                         const std::vector<int>& rows, int k,
                                         const RdpGreedyOptions& opts = {});

/// Options for DmmRows.
struct DmmOptions {
  /// Target total direction count; the per-axis grid resolution is derived
  /// as ceil(target^(1/(d-1))). 0 derives the 10 * k * d default.
  size_t target_net_size = 0;
  /// The happiness matrix (float) must fit here, else ResourceExhausted.
  uint64_t memory_budget_bytes = 2'000'000'000;
  /// Matrix-fill / evaluation lanes (0 = DefaultThreads(), 1 = exact serial
  /// path); output is bit-identical across thread counts.
  int threads = 0;
};

/// DMM.
StatusOr<std::vector<int>> DmmRows(const Dataset& data,
                                   const std::vector<int>& rows, int k,
                                   const DmmOptions& opts = {});

/// Options for SphereRows.
struct SphereOptions {
  size_t net_size = 0;  ///< 0 -> 10 * k * d sampled directions.
  uint64_t seed = 29;
  /// Evaluation lanes (0 = DefaultThreads(), 1 = exact serial path); output
  /// is bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of nets / evaluators (not owned; null = build
  /// per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// Sphere. Fails with InvalidArgument when k < d (as the original does).
StatusOr<std::vector<int>> SphereRows(const Dataset& data,
                                      const std::vector<int>& rows, int k,
                                      const SphereOptions& opts = {});

/// Options for HittingSetRows.
struct HittingSetOptions {
  size_t validation_net_size = 0;  ///< 0 -> 20 * k * d.
  int max_rounds = 64;
  uint64_t seed = 31;
  /// Evaluation lanes (0 = DefaultThreads(), 1 = exact serial path); output
  /// is bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of nets / denominator precomputes (not owned;
  /// null = build per call). Results are bit-identical either way.
  ArtifactCache* cache = nullptr;
};

/// HS (lazy hitting set).
StatusOr<std::vector<int>> HittingSetRows(const Dataset& data,
                                          const std::vector<int>& rows, int k,
                                          const HittingSetOptions& opts = {});

}  // namespace fairhms

#endif  // FAIRHMS_ALGO_BASELINES_H_
