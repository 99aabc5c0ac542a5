// DatasetCatalog: many named datasets served from one process.
//
// The serving deployment the ROADMAP targets is multi-tenant: one process
// holds several datasets, each pinned by its own dynamic SolverSession,
// with queries routed by name ({"dataset": "name", ...} in the batch
// driver). The catalog owns the Dataset/Grouping/SolverSession triple per
// name, so entry lifetimes are correct by construction (sessions pin raw
// pointers into catalog-owned storage). Every session shares the
// process-wide ThreadPool::Shared() worker pool — per-tenant pools would
// oversubscribe the machine C times.
//
// Memory: the catalog runs one CacheArbiter (core/artifact_cache.h) over
// every session's ArtifactCache. Serve() touches the serving session, runs
// the op, then rebalances, evicting cache entries — the coldest session's
// least recently used first (ArtifactCache::EvictLeastRecent) — until the
// global total fits the budget again, so a budget smaller than the sum of
// per-dataset working sets degrades to recomputation, never to failure: a
// dynamic session copies an evicted skyline, pool or group counts back out
// of its SkylineIndex, everything else is rebuilt. Eviction may drop an
// entry another thread is solving against: that solve holds its artifacts
// by shared_ptr and finishes unaffected.
//
// Persistence: Save() serializes a session's full serving state through
// data/snapshot.h (table + partition + insert-routing provenance +
// maintained skyline state); Load() restores it under a name without a
// single dominance test. A failed Load never partially mutates the
// catalog: every validation runs before the name is inserted.
//
// The catalog is single-writer: Register/Load/Drop/Save must not race
// each other or anything that serves a dataset. Each entry carries a
// SharedMutex, created by Register/Load and destroyed by Drop, that Find()
// hands out with the session: concurrent callers take it shared to read
// the session (queries) and exclusive to mutate it (Insert/Erase). The
// catalog itself never takes it. Solve() and Serve() are safe for
// concurrent callers once registration is done, including their
// rebalances.

#ifndef FAIRHMS_API_CATALOG_H_
#define FAIRHMS_API_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/solver.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/artifact_cache.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "data/snapshot.h"

namespace fairhms {

/// Assembles a Snapshot of a dynamic session's full serving state. Forces
/// the skyline index into existence first (EnsureIndex), so the snapshot
/// always warm-starts; FailedPrecondition on static sessions.
StatusOr<Snapshot> SnapshotSession(SolverSession* session);

class DatasetCatalog {
 public:
  struct Options {
    /// Process-wide cache budget in bytes across every session's
    /// ArtifactCache; 0 = unlimited. Replaces the per-session budget: one
    /// hot tenant may use everything while cold tenants' artifacts are
    /// evicted first.
    uint64_t cache_budget_bytes = 0;
  };

  DatasetCatalog();  ///< Unlimited budget.
  explicit DatasetCatalog(Options opts);
  DatasetCatalog(const DatasetCatalog&) = delete;
  DatasetCatalog& operator=(const DatasetCatalog&) = delete;

  /// Registers `data` + `grouping` under `name` (taking ownership) and
  /// spins up its dynamic session. `group_columns` is the insert-routing
  /// provenance, as in SolverSession::CreateDynamic. Fails without
  /// mutating anything when the name is empty or taken, or the session
  /// refuses the pair.
  Status Register(const std::string& name, Dataset data, Grouping grouping,
                  const std::vector<std::string>& group_columns = {});

  /// Restores a snapshot file under `name` — warm: the skyline index and
  /// insert-routing state come from the file, not from recomputation.
  /// Strict: any read/validation error (see data/snapshot.h for the
  /// taxonomy) leaves the catalog untouched.
  Status Load(const std::string& name, const std::string& path);

  /// Writes `name`'s current serving state to `path` (atomic
  /// write-then-rename). The session stays registered and warm.
  Status Save(const std::string& name, const std::string& path);

  /// Removes `name`, its session and its cache charge. NotFound when
  /// absent.
  Status Drop(const std::string& name);

  /// Registered names, sorted.
  std::vector<std::string> List() const;

  /// A registered dataset as Find() hands it out: its session and the lock
  /// its entry carries. Both live until Drop.
  struct Handle {
    SolverSession* session = nullptr;
    SharedMutex* mu = nullptr;
  };

  /// The entry registered under `name` (NotFound otherwise). A miss
  /// allocates nothing that outlives the call.
  StatusOr<Handle> Find(const std::string& name);

  /// The session serving `name` (NotFound otherwise). Callers may mutate
  /// through it (Insert/Erase) under the single-writer contract; prefer
  /// Solve() or Serve() so budget arbitration runs.
  StatusOr<SolverSession*> Session(const std::string& name);

  /// Touch → serve → settle, the one budget step of every per-dataset op:
  /// marks `session` most-recently-used, runs `serve()`, then rebalances
  /// the global budget, evicting from `session`'s cache last (it is the one
  /// demonstrably hot). Returns what `serve()` returns.
  template <class Fn>
  auto Serve(SolverSession* session, Fn&& serve) -> decltype(serve()) {
    arbiter_.Touch(session->cache());
    auto result = serve();
    arbiter_.Rebalance(session->cache());
    return result;
  }

  /// Routes one query to `name` through Serve(). Results are bit-identical
  /// to a standalone session pinned to the same data — the catalog adds
  /// routing and arbitration, never a different code path.
  StatusOr<SolverResult> Solve(const std::string& name,
                               const SolverRequest& request);

  /// Monotonic catalog mutation counter: Register/Load/Drop bump it, so a
  /// response stamped with it pins exactly which catalog state served the
  /// query (the batch driver echoes it per line).
  uint64_t version() const { return version_; }

  size_t size() const { return entries_.size(); }

  /// The process-wide budget arbiter (telemetry / reports).
  CacheArbiter* arbiter() { return &arbiter_; }
  const CacheArbiter* arbiter() const { return &arbiter_; }

 private:
  struct Entry {
    std::unique_ptr<Dataset> data;
    std::unique_ptr<Grouping> grouping;
    std::unique_ptr<SolverSession> session;
    /// The lock Find() hands out (see the single-writer note above).
    std::unique_ptr<SharedMutex> mu = std::make_unique<SharedMutex>();
  };

  /// Shared tail of Register/Load: builds the session over an
  /// already-validated entry and commits it under `name`.
  Status Commit(const std::string& name, Entry entry);

  CacheArbiter arbiter_;
  std::map<std::string, Entry> entries_;
  uint64_t version_ = 0;
};

}  // namespace fairhms

#endif  // FAIRHMS_API_CATALOG_H_
