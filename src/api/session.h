// SolverSession: the multi-query engine of the FairHMS library.
//
// The paper's experimental workload — and any serving deployment — is a
// sweep: many (algorithm, k, bounds, params, seed) queries against one
// fixed dataset. A SolverSession pins a Dataset + Grouping once and serves
// every SolverRequest through the same AlgorithmRegistry path as
// Solver::Solve, but memoizes the shared artifacts across queries in an
// ArtifactCache (core/artifact_cache.h): global skylines per projection
// key, prepared 2D projections, sampled utility nets and NetEvaluator
// denominator/candidate precomputes, fair candidate pools and group
// tables.
//
//   SolverSession session = SolverSession::Create(&data, &groups).value();
//   SolverRequest req;                  // data/grouping may stay null —
//   req.algorithm = "bigreedy";         // the session fills its pinned
//   req.bounds = bounds;                // objects in.
//   auto first = session.Solve(req);    // cold: builds artifacts
//   auto again = session.Solve(req);    // warm: cache hits
//   session.cache_stats();              // hits / misses / bytes
//
// Guarantee: a cache hit never changes an answer — the cache only memoizes
// pure functions of the pinned objects and restores RNG streams on hits,
// so Solver::Solve(req) (the one-shot special case, which runs a throwaway
// session) and session.Solve(req) return identical results. Warm-started
// re-solves (SolverRequest::allow_warm_start) are the exception: BiGreedy's
// warm tau walk re-certifies its own answer but can stop at a different
// grid index than the cold binary search (ROADMAP item 2).
//
// Dynamic sessions (CreateDynamic) additionally accept mutations between
// queries: Insert appends a row (deriving its fairness group from pinned
// categorical columns, or taking an explicit id), Erase tombstones rows.
// A SkylineIndex keeps the global/per-group skylines, fair pool and live
// group counts current incrementally, and the session's cache copies them
// out of it on a miss under the new dataset version instead of recomputing
// (ArtifactCache::SetIndex), so an update only dirties what it must:
// utility nets survive untouched, evaluator precomputes rebuild lazily
// when the skyline rows under them change, and the 2D projection is
// rebuilt by the first exact-2D query after the update
// (Dataset::Project2D). The warm-equals-cold guarantee extends across
// mutations — after any update a session query is bit-identical to a cold
// Solver::Solve against the mutated dataset.
//
// Solve is safe for concurrent callers once registration has finished, and
// so are ClearCache and the cache's EvictLeastRecent: solves hold their
// cached artifacts by shared_ptr, and the 2D projection they may read is
// never dropped. Insert and Erase must not race in-flight solves.

#ifndef FAIRHMS_API_SESSION_H_
#define FAIRHMS_API_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "common/thread_annotations.h"
#include "common/statusor.h"
#include "core/artifact_cache.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "plan/cost_model.h"
#include "skyline/incremental.h"

namespace fairhms {

class SolverSession {
 public:
  /// Pins `data` + `grouping` (not owned; both must outlive the session and
  /// must not be mutated while it lives). Fails with InvalidArgument on a
  /// null/empty dataset or a grouping that does not cover it.
  static StatusOr<SolverSession> Create(const Dataset* data,
                                        const Grouping* grouping);

  /// Pins a *mutable* dataset + grouping: the session serves Insert/Erase
  /// updates between queries and maintains every derived artifact
  /// incrementally (see the header comment). `group_columns` names
  /// categorical columns whose value combination assigns each inserted
  /// row's group (new combinations open a new group); without them,
  /// inserts into a multi-group session need an explicit group id. The
  /// given grouping must already agree with `group_columns` where given.
  static StatusOr<SolverSession> CreateDynamic(
      Dataset* data, Grouping* grouping,
      const std::vector<std::string>& group_columns = {});

  /// Rebuilds a dynamic session from snapshotted state (data/snapshot.h):
  /// like CreateDynamic, but seeds the combination table from `combo_map`
  /// — preserving routes whose rows were all erased, which a replay of the
  /// live table could never recover — and adopts an already-restored
  /// SkylineIndex (may be null; the index then builds lazily on the first
  /// mutation). The index, when given, must have been restored against
  /// exactly `data` + `grouping`.
  static StatusOr<SolverSession> RestoreDynamic(
      Dataset* data, Grouping* grouping,
      const std::vector<std::string>& group_columns,
      std::vector<std::pair<std::vector<int>, int>> combo_map,
      std::unique_ptr<SkylineIndex> index);

  SolverSession(SolverSession&&) = default;
  SolverSession& operator=(SolverSession&&) = default;

  /// True when the session was created via CreateDynamic.
  bool dynamic() const { return mutable_data_ != nullptr; }

  /// Appends one row (`codes` must cover every categorical column of the
  /// pinned dataset). `group` is an existing group id, or -1 to derive one
  /// (single-group sessions and pinned group_columns only). Returns the
  /// new row's index. Must not race in-flight solves.
  StatusOr<int> Insert(const std::vector<double>& coords,
                       const std::vector<int>& codes, int group = -1);

  /// Tombstones the given live rows (they stay addressable; they leave
  /// every skyline, pool and group table). Groups emptied by deletes stay
  /// in the grouping and get [0, 0] proportional bounds. Must not race
  /// in-flight solves.
  Status Erase(const std::vector<int>& rows);

  /// The group Insert would route a row with these codes to, without
  /// mutating anything: an existing id, or -1 when a new group would be
  /// created from an unseen column combination. Surfaces every Insert
  /// routing error (no provenance, out-of-range or contradicting explicit
  /// group), so callers can run side effects of their own between this
  /// check and the Insert.
  StatusOr<int> ResolveInsertGroup(const std::vector<int>& codes,
                                   int group = -1);

  /// The pinned dataset's current mutation version.
  uint64_t version() const { return data_->version(); }

  /// Forces the dynamic machinery (combination table + SkylineIndex) into
  /// existence without waiting for a mutation — snapshot save wants the
  /// maintained skyline state even from a query-only session.
  /// FailedPrecondition on static sessions.
  Status EnsureIndex();

  /// The maintained skyline index, or null while none has been built
  /// (static session, or a dynamic one before its first mutation /
  /// EnsureIndex call).
  const SkylineIndex* index() const { return index_.get(); }

  /// Names of the pinned group columns (insert-routing provenance), in
  /// pinning order.
  std::vector<std::string> group_column_names() const;

  /// The combination table as a sorted (combo, group) list — the form
  /// data/snapshot.h serializes. Empty until the dynamic state exists.
  std::vector<std::pair<std::vector<int>, int>> combo_map() const;

  /// Serves one query. request.data / request.grouping may be null (the
  /// pinned objects are filled in) or must equal the pinned pointers —
  /// anything else is an InvalidArgument (pin another session for another
  /// dataset).
  StatusOr<SolverResult> Solve(const SolverRequest& request);

  const Dataset& data() const { return *data_; }
  const Grouping& grouping() const { return *grouping_; }

  /// The pinned *mutable* dataset — null for static sessions. Callers that
  /// mutate through it (e.g. registering categorical labels ahead of an
  /// Insert) are bound by the same single-writer contract as Insert/Erase.
  Dataset* mutable_data() { return mutable_data_; }

  /// Pinned per-group *live* row counts (memoized per version).
  std::vector<int> group_counts();

  /// Hit/miss/byte report across every artifact class.
  CacheStats cache_stats() const { return cache_->stats(); }

  /// The session's cache, for callers that evaluate results against the
  /// same pinned dataset (e.g. the batch driver's reference mhr).
  ArtifactCache* cache() { return cache_.get(); }

  /// The session's measured cost model: every successful solve records an
  /// observation, and `algorithm: "auto"` requests plan against it.
  /// DatasetCatalog persists it next to snapshots (`<path>.plan`).
  CostModel* cost_model() { return cost_model_.get(); }
  const CostModel* cost_model() const { return cost_model_.get(); }

  /// Drops every cached artifact (hit/miss history survives); the
  /// session-owned 2D projection stays. Safe next to in-flight solves.
  /// Artifacts the SkylineIndex maintains are copied back out of it on
  /// their next miss, not recomputed.
  void ClearCache();

 private:
  SolverSession(const Dataset* data, const Grouping* grouping);

  /// The pinned dataset projected to its first two attributes, built on
  /// first use (exact-2D algorithms on dim > 2 data) and rebuilt by the
  /// first call after a mutation (Dataset::Project2D).
  const Dataset& Projection2D() FAIRHMS_EXCLUDES(*projection_mu_);

  /// Builds the dynamic machinery (combo table + SkylineIndex) on the
  /// first actual mutation, so update-free dynamic sessions cost exactly
  /// what a static session does, and attaches the index to the cache.
  Status EnsureDynamicState();

  /// Last compatible solve of a warm_startable algorithm, keyed by
  /// algorithm name. The hint is advisory (the algorithm re-validates),
  /// so the memo survives ClearCache and bounds drift; eligibility only
  /// filters the cases where probing would be wasted work.
  struct WarmMemo {
    int tau_index = -1;
    int k = 0;
    uint64_t seed = 0;
    int threads = 0;
    uint64_t data_version = 0;
    uint64_t grouping_version = 0;
    std::string params_key;  ///< Fingerprint of the validated params bag.
  };

  const Dataset* data_;
  const Grouping* grouping_;
  std::unique_ptr<ArtifactCache> cache_;
  std::unique_ptr<CostModel> cost_model_;
  // SolverSession is movable (returned by value from the factories), so
  // its mutexes live behind unique_ptr; members are annotated against the
  // pointee (`*warm_mu_`) and locked as `MutexLock lock(*warm_mu_)`.
  std::unique_ptr<Mutex> warm_mu_;
  std::map<std::string, WarmMemo> warm_memo_ FAIRHMS_GUARDED_BY(*warm_mu_);
  std::unique_ptr<Mutex> projection_mu_;
  std::unique_ptr<Dataset> projection2d_ FAIRHMS_GUARDED_BY(*projection_mu_);

  // Dynamic-session state (null/empty for Create'd sessions).
  Dataset* mutable_data_ = nullptr;
  Grouping* mutable_grouping_ = nullptr;
  std::vector<int> group_cols_;  ///< Categorical column indices.
  std::map<std::vector<int>, int> combo_to_group_;
  /// Attached to cache_ (ArtifactCache::SetIndex) once it exists.
  std::unique_ptr<SkylineIndex> index_;
};

namespace internal {

/// Request-shape + parameter-schema validation shared by Solver::Validate,
/// Solver::Solve and SolverSession::Solve. On success *info_out (when
/// non-null) points at the resolved registry entry. A non-null `cache`
/// memoizes the group counts used by the bounds-feasibility check.
Status ValidateRequestShape(const SolverRequest& request,
                            const AlgorithmInfo** info_out,
                            ArtifactCache* cache = nullptr);

}  // namespace internal

}  // namespace fairhms

#endif  // FAIRHMS_API_SESSION_H_
