// AlgorithmRegistry: the single catalogue of every FairHMS / HMS solver in
// the library.
//
// Each algorithm self-registers from its own .cc via a file-scope
// AlgorithmRegistrar: a factory closure (SolveFn) plus capability metadata
// and the parameter schema its AlgoParams are validated against. The
// Solver::Solve facade (api/solver.h), the CLI's --list_algos, examples and
// tests all resolve algorithms by name through this registry — adding an
// algorithm to the library is one registrar block, with no CLI or facade
// edits.

#ifndef FAIRHMS_API_REGISTRY_H_
#define FAIRHMS_API_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/params.h"
#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {

class ArtifactCache;  // core/artifact_cache.h

/// What an algorithm can do / needs. Drives facade behavior (2D projection,
/// the unconstrained-baseline note) and the --list_algos capability column.
struct AlgoCapabilities {
  /// Exact but 2D-only; Solver::Solve transparently solves higher-D
  /// requests on the first-two-attribute projection (with a result note).
  bool exact_2d = false;
  /// Honors the group bounds by construction. When false the algorithm runs
  /// unconstrained (the plain baselines look up the global skyline
  /// themselves, algo/group_adapter.h) and the bounds are only used for the
  /// violation report and a note on the result.
  bool fairness_aware = false;
  /// Uses the request seed (randomized direction nets etc.). Runs are still
  /// reproducible for a fixed seed.
  bool randomized = false;
  /// Accepts the BiGreedy+ adaptive-sampling 'lambda' parameter.
  bool supports_lambda = false;
  /// Can seed a solve from a previous session solution (via
  /// SolveContext::warm_tau_index) and self-validate the hint, falling
  /// back to a cold solve when validation fails. The warm walk re-certifies
  /// its own answer but can stop at a different grid index than the cold
  /// binary search, so warm rows can differ from cold ones (ROADMAP item 2).
  bool warm_startable = false;
};

/// Renders set capabilities as "fair,exact-2d,..." (or "-" when none).
/// Token order is fixed (fair, exact-2d, randomized, lambda, warm); the
/// CLI's --list_algos prints this as a machine-parseable column and CI
/// greps it.
std::string CapabilitiesToString(const AlgoCapabilities& caps);

/// Per-solve diagnostics an algorithm reports back through
/// SolveContext::run_info (when non-null). Used by SolverSession to decide
/// warm-start eligibility for the *next* solve.
struct SolveRunInfo {
  /// Certified tau-grid index of the returned solution (-1 when the solve
  /// did not certify one, e.g. greedy fallback paths).
  int tau_index = -1;
  /// The warm-start hint was accepted; the solve skipped its cold search.
  bool warm_start_used = false;
  /// BiGreedy's loop work (BiGreedyRunInfo; bigreedy+ sums its doubling
  /// rounds): MRGreedy calls, GainBound and MarginalGain evaluations. 0
  /// for other algorithms. Not rendered on the wire.
  int mrgreedy_calls = 0;
  int64_t bound_rows = 0;
  int64_t exact_gains = 0;
};

/// Everything Solver::Solve hands an algorithm. `data` is the dataset to
/// select from (already projected to 2D for exact_2d algorithms). `params`
/// has been validated against the algorithm's schema.
struct SolveContext {
  const Dataset* data = nullptr;
  const Grouping* grouping = nullptr;
  const GroupBounds* bounds = nullptr;
  uint64_t seed = 42;
  int threads = 0;
  const AlgoParams* params = nullptr;
  /// Cross-query artifact memoization, set when the solve runs inside a
  /// SolverSession (api/session.h); null on the one-shot cold path.
  /// Algorithms must produce bit-identical results either way.
  ArtifactCache* cache = nullptr;
  /// Warm-start hint for warm_startable algorithms: the certified tau-grid
  /// index of the session's previous compatible solution, or -1 for a cold
  /// solve. The algorithm re-certifies whatever the hint leads to, but that
  /// answer can differ from the cold solve's (ROADMAP item 2).
  int warm_tau_index = -1;
  /// When non-null, the algorithm fills per-solve diagnostics here.
  SolveRunInfo* run_info = nullptr;
};

/// An algorithm's entry point: builds its Options from the context's params
/// and runs. Must be deterministic for a fixed (context, seed, threads).
using SolveFn = std::function<StatusOr<Solution>(const SolveContext&)>;

/// One registry entry.
struct AlgorithmInfo {
  std::string name;          ///< Registry key, e.g. "bigreedy+".
  std::string display_name;  ///< Human name, e.g. "BiGreedy+".
  std::string summary;       ///< One-line description for --list_algos.
  AlgoCapabilities caps;
  std::vector<ParamSpec> params;  ///< Schema; kept sorted by name.
  SolveFn solve;
};

/// Process-wide algorithm catalogue. Registration happens during static
/// initialization (single-threaded); lookups afterwards are read-only.
class AlgorithmRegistry {
 public:
  /// The singleton (created on first use, never destroyed).
  static AlgorithmRegistry& Instance();

  /// Adds an entry. Duplicate names or a missing solve fn are programming
  /// errors and return Internal (AlgorithmRegistrar aborts on them).
  Status Register(AlgorithmInfo info);

  /// Entry by name, or nullptr. Pointers stay valid for process lifetime.
  const AlgorithmInfo* Find(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// All entries, sorted by name.
  std::vector<const AlgorithmInfo*> All() const;

  /// "a, b, c" over Names() — the uniform unknown-algorithm error text.
  std::string NamesForError() const;

 private:
  AlgorithmRegistry() = default;
  /// Keyed by name; std::map keeps Names()/All() deterministically sorted.
  std::map<std::string, AlgorithmInfo> entries_;
};

/// File-scope self-registration helper:
///   namespace { AlgorithmRegistrar reg(MakeMyAlgoInfo()); }
/// Aborts the process on registration errors (duplicate name = build bug).
class AlgorithmRegistrar {
 public:
  explicit AlgorithmRegistrar(AlgorithmInfo info);
};

}  // namespace fairhms

#endif  // FAIRHMS_API_REGISTRY_H_
