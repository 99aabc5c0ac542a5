// Unified solution evaluation used by benches, examples and tests.

#ifndef FAIRHMS_CORE_EVALUATE_H_
#define FAIRHMS_CORE_EVALUATE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// How to measure mhr(S).
enum class MhrMethod {
  kAuto,     ///< Exact2D for d = 2; ExactLp for small skylines; Net otherwise.
  kExact2D,  ///< Geometric envelope evaluator (d = 2 only).
  kExactLp,  ///< Witness LPs (exact, any d).
  kNet,      ///< High-resolution random evaluation net (upper bound on mhr).
};

/// Options for EvaluateMhr.
struct EvalOptions {
  MhrMethod method = MhrMethod::kAuto;
  /// Direction count for MhrMethod::kNet.
  size_t net_size = 20000;
  uint64_t seed = 0xE7A1u;
  /// Evaluation lanes (0 = DefaultThreads(), 1 = exact serial path). The
  /// result is bit-identical across thread counts.
  int threads = 0;
  /// Cross-query memoization of the MhrMethod::kNet net + denominators
  /// (not owned; null = build per call). Results are bit-identical either
  /// way.
  ArtifactCache* cache = nullptr;
};

/// Evaluates mhr(S) against the database represented by `db_rows` (pass the
/// global skyline). Choice of engine per `opts`.
double EvaluateMhr(const Dataset& data, const std::vector<int>& db_rows,
                   const std::vector<int>& solution,
                   const EvalOptions& opts = {});

}  // namespace fairhms

#endif  // FAIRHMS_CORE_EVALUATE_H_
