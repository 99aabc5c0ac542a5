// ArtifactCache: cross-query memoization of the expensive, immutable
// artifacts FairHMS solves keep rebuilding — sampled utility nets, the
// NetEvaluator denominator/candidate precomputes, global skylines, fair
// candidate pools and live group counts.
//
// A SolverSession (api/session.h) owns one cache and pins it to a dataset +
// grouping; algorithms reach it through SolveContext::cache (or their
// Options struct) and go through the cache-optional GetOr* entry points at
// the bottom of this header, which build a transient artifact when the
// cache is null — so the cold path and the cached path run the exact same
// code and produce bit-identical results:
//
//   * nets are keyed by (dim, size, full RNG state) and a cache hit
//     restores the generator to its post-sample state, so the caller's
//     stream continues exactly as if it had sampled;
//   * evaluators are keyed by (net identity, denominator rows, cached
//     candidate rows, thread lanes) and their precomputes are already
//     bit-identical across thread counts;
//   * skylines / pools / group counts are pure functions of the pinned
//     dataset and grouping, which the cache identifies by (address,
//     version) (group counts by the grouping's address alone, see
//     VersionedKey) — every keyed object must outlive the cache, and a
//     mutation (Dataset::AppendRows/ErasePoints, Grouping::AppendRow/AddGroup)
//     makes the stale entries unreachable. Storing a fresh version prunes
//     the superseded one, so a churning dataset does not accumulate dead
//     artifacts. Group counts are *live* (erased rows excluded). The fair
//     pool is the one per-group skyline artifact: it is the union of the
//     group skylines, so regrouping it by group gives each group's skyline
//     back (G-* does), and no group member table is stored either.
//
// Every kind lives in one keyed table behind one GetOrBuild. Dynamic
// sessions avoid even the one recompute per version: SkylineIndex
// maintains the skyline, pool and counts incrementally, and once a session
// attaches it (SetIndex) a miss on its table copies the artifact out of
// the index instead of computing it; nets are version-free (they never
// read the dataset) and survive every mutation, while evaluators are keyed
// by their exact row sets and simply rebuild lazily when the skyline under
// them changes.
//
// Lookups are safe for concurrent callers, and builds run outside the
// cache lock. Artifacts are handed out as shared_ptrs, so Clear(), Put and
// an arbiter's eviction may run at any time: a holder's artifact stays
// alive until it lets go. Every stored entry carries a last-use tick (set
// on store and on hit); budget eviction drops entries least recently used
// first, one at a time (EvictLeastRecent).

#ifndef FAIRHMS_CORE_ARTIFACT_CACHE_H_
#define FAIRHMS_CORE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "core/net_evaluator.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "utility/utility_net.h"

namespace fairhms {

/// Hit/miss/byte accounting per artifact class, reported by
/// SolverSession::cache_stats() and the --queries batch driver.
struct CacheStats {
  struct Counter {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bytes = 0;  ///< Resident payload bytes of live entries.
  };
  Counter nets;         ///< Sampled utility nets.
  Counter evaluators;   ///< NetEvaluator denominator + candidate caches.
  Counter skylines;     ///< Global skylines (one per projection key).
  Counter pools;        ///< Fair candidate pools (per-group skylines).
  Counter groups;       ///< Live group counts.
  Counter projections;  ///< Prepared 2D projections (session-owned).

  uint64_t TotalHits() const;
  uint64_t TotalMisses() const;
  uint64_t TotalBytes() const;
};

/// One artifact class of CacheStats: its report name and its counter.
struct CacheClass {
  const char* name;
  CacheStats::Counter CacheStats::*counter;
};

/// Every CacheStats class in report order — the one list the totals,
/// ToString, the stats op and the cache's per-Kind slots read. The first
/// entries follow ArtifactCache::Kind (entry i counts Kind i); the
/// session-owned projections come last and have no Kind.
inline constexpr CacheClass kCacheClasses[] = {
    {"nets", &CacheStats::nets},
    {"evaluators", &CacheStats::evaluators},
    {"skylines", &CacheStats::skylines},
    {"pools", &CacheStats::pools},
    {"groups", &CacheStats::groups},
    {"projections", &CacheStats::projections},
};

class CacheArbiter;
class SkylineIndex;  // skyline/incremental.h

/// A sampled utility net plus the generator state right after sampling: a
/// cache hit restores that state, so the caller's stream continues as if
/// it had sampled.
struct SampledNet {
  UtilityNet net;
  Rng post_state;
};

/// Resident payload bytes of each artifact type the cache stores: the
/// figures CacheStats reports and a CacheArbiter charges.
uint64_t ArtifactBytes(const std::vector<int>& rows);
uint64_t ArtifactBytes(const SampledNet& net);
uint64_t ArtifactBytes(const NetEvaluator& evaluator);

class ArtifactCache {
 public:
  /// The artifact classes, each reporting into the CacheStats counter at
  /// its position in kCacheClasses (kGroupCounts into `groups`).
  enum class Kind : uint8_t {
    kNet,
    kEvaluator,
    kSkyline,
    kFairPool,
    kGroupCounts,
  };

  /// One table key. Identity is (kind, data, grouping, id): `data` and
  /// `grouping` are the objects an artifact is computed from (null for
  /// nets, which never read the dataset), `id` everything else that selects
  /// the value. `version` is not identity but the stamp a lookup gives its
  /// entry: the owners' (data, grouping) versions at the time.
  struct Key {
    Kind kind = Kind::kNet;
    const void* data = nullptr;
    const void* grouping = nullptr;
    std::vector<uint64_t> id;
    std::pair<uint64_t, uint64_t> version{0, 0};
    bool operator<(const Key& o) const;
  };

  /// The key of a pure function of `data` (and `grouping`, when given) at
  /// their current versions, which are both its identity and its stamp.
  /// Group counts are identified by the grouping alone, so a table and its
  /// 2-D projection (same rows, tombstones and version) share them; one
  /// grouping must not be used with two tables that reach the same version
  /// with different tombstones.
  static Key VersionedKey(Kind kind, const Dataset& data,
                          const Grouping* grouping = nullptr);

  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The artifact under `key`, built by `build()` (a
  /// std::shared_ptr<const T>) on a miss. The build runs outside the cache
  /// lock: a concurrent miss on the same key waits for that build and then
  /// counts a hit; lookups of other keys never wait on it. A hit restamps
  /// the entry with key.version; storing a build drops the entries of the
  /// same kind and owners stamped at older versions.
  template <class T, class Build>
  std::shared_ptr<const T> GetOrBuild(const Key& key, Build&& build)
      FAIRHMS_EXCLUDES(mu_) {
    return std::static_pointer_cast<const T>(
        GetOrBuildErased(key, [&build]() -> Entry {
          std::shared_ptr<const T> value = build();
          const uint64_t bytes = ArtifactBytes(*value);
          return {std::move(value), bytes, {}};
        }));
  }

  /// Stores an artifact computed elsewhere under `key`, so the next lookup
  /// hits instead of recomputing (bench_paper seeds each throwaway session
  /// with its case's skyline and pool this way). Counted as neither hit nor
  /// miss; prunes older versions like a stored build.
  template <class T>
  void Put(const Key& key, T value) FAIRHMS_EXCLUDES(mu_) {
    auto shared = std::make_shared<const T>(std::move(value));
    const uint64_t bytes = ArtifactBytes(*shared);
    Store(key, {std::move(shared), bytes, {}});
  }

  /// Copies of the memoized global skyline and fair pool, for tools that
  /// keep them past a query (counted like GetOrComputeSkyline /
  /// GetOrComputeFairPool).
  std::vector<int> Skyline(const Dataset& data) FAIRHMS_EXCLUDES(mu_);
  std::vector<int> FairPool(const Dataset& data, const Grouping& grouping)
      FAIRHMS_EXCLUDES(mu_);

  /// Snapshot of the counters (copied under the lock).
  CacheStats stats() const FAIRHMS_EXCLUDES(mu_);

  /// Accounts a session-owned artifact lookup (the prepared 2D projection)
  /// under the cache lock; `bytes` is added on a miss.
  void AccountProjection(bool hit, uint64_t bytes) FAIRHMS_EXCLUDES(mu_);

  /// Drops every stored entry and refunds its bytes (hit/miss history
  /// survives). Safe next to in-flight solves: holders keep their
  /// artifacts alive, and builds in flight still store. The session-owned
  /// projection stays charged.
  void Clear() FAIRHMS_EXCLUDES(mu_);

  /// Drops the stored entry used least recently (stored or hit longest
  /// ago) and refunds its bytes; returns its kind, or nullopt when nothing
  /// is stored. A pending build is never picked, and the session-owned
  /// projection is not an entry. Same safety as Clear().
  std::optional<Kind> EvictLeastRecent() FAIRHMS_EXCLUDES(mu_);

  /// Attaches the SkylineIndex maintained over the pinned (data, grouping)
  /// pair, or detaches with null. From then on a miss on that table's
  /// skyline, fair pool or group counts copies the index's value (counted
  /// as a miss like any build) as long as the index's data and grouping
  /// versions equal the lookup key's; any other table — a 2-D projection,
  /// say — computes as without an index. The index must outlive the cache
  /// (or be detached first) and must not change while a lookup may read
  /// it: mutations must not race lookups. SolverSession sets it once its
  /// dynamic state exists.
  void SetIndex(const SkylineIndex* index) FAIRHMS_EXCLUDES(mu_);

  /// The attached index when it describes `data` (and the key's grouping)
  /// at exactly the key's versions, else null.
  const SkylineIndex* IndexFor(const Key& key, const Dataset& data) const
      FAIRHMS_EXCLUDES(mu_);

  /// Attaches a process-wide arbiter: from now on every change to the
  /// resident byte total is charged/refunded there, in the order the cache
  /// applies it. CacheArbiter::Register does this.
  void SetArbiter(CacheArbiter* arbiter) FAIRHMS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const void> value;  ///< Null while its build runs.
    uint64_t bytes = 0;
    std::pair<uint64_t, uint64_t> stamp{0, 0};
    uint64_t last_use = 0;  ///< use_seq_ at its store or latest hit.
  };
  using Table = std::map<Key, Entry>;

  std::shared_ptr<const void> GetOrBuildErased(
      const Key& key, const std::function<Entry()>& build)
      FAIRHMS_EXCLUDES(mu_);
  /// Stores a built or put `entry` under `key` (waiters wake to it),
  /// stamped key.version, and prunes older versions.
  void Store(const Key& key, Entry entry) FAIRHMS_EXCLUDES(mu_);
  /// Erases a stored entry, refunding its bytes into `*delta`.
  Table::iterator Drop(Table::iterator it, int64_t* delta)
      FAIRHMS_REQUIRES(mu_);
  /// Charges `delta` to the arbiter (`pinned`: bytes Clear() keeps). Called
  /// under mu_, so the arbiter sees this cache's changes in order (lock
  /// order cache -> arbiter).
  void Settle(int64_t delta, bool pinned = false) FAIRHMS_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar built_;  ///< Signalled whenever a pending entry is stored.
  CacheStats stats_ FAIRHMS_GUARDED_BY(mu_);
  CacheArbiter* arbiter_ FAIRHMS_GUARDED_BY(mu_) = nullptr;
  const SkylineIndex* index_ FAIRHMS_GUARDED_BY(mu_) = nullptr;
  uint64_t use_seq_ FAIRHMS_GUARDED_BY(mu_) = 0;  ///< Recency clock.
  Table entries_ FAIRHMS_GUARDED_BY(mu_);
};

/// Process-wide cache budget arbitration across many ArtifactCaches (one
/// per catalog session). Each cache charges/refunds its resident-byte
/// changes here; when the global total exceeds the budget, Rebalance frees
/// entries from cold caches — least-recently-Touched cache first, and
/// within it least recently used entry first — through the eviction
/// callback each cache registered with. One callback call drops one entry
/// (the catalog registers the cache's own EvictLeastRecent).
///
/// Concurrency contract: OnBytesChanged is pure accounting and safe from
/// any thread; caches call it under their own lock (lock order cache ->
/// arbiter, never the reverse). Rebalance invokes eviction callbacks
/// *outside* the arbiter lock — callbacks re-enter via OnBytesChanged when
/// the cache refunds the dropped entry's bytes — and may run next to
/// in-flight solves, which hold their artifacts by shared_ptr. A budget of
/// 0 means unlimited (never evicts).
class CacheArbiter {
 public:
  explicit CacheArbiter(uint64_t budget_bytes) : budget_(budget_bytes) {}
  CacheArbiter(const CacheArbiter&) = delete;
  CacheArbiter& operator=(const CacheArbiter&) = delete;

  /// Starts arbitrating `cache` (attaches this arbiter to it and charges
  /// its current resident bytes, its projection pinned). `evict` drops one
  /// of the cache's entries (its least recently used) each time Rebalance
  /// calls it. Re-registering an address replaces its entry.
  void Register(ArtifactCache* cache, std::string name,
                std::function<void()> evict) FAIRHMS_EXCLUDES(mu_);

  /// Stops arbitrating `cache`, refunding whatever it still has charged.
  /// No-op for an unknown address.
  void Unregister(ArtifactCache* cache) FAIRHMS_EXCLUDES(mu_);

  /// Charges (delta > 0) or refunds (delta < 0) bytes for `cache`.
  /// `pinned` charges are bytes eviction cannot free (the session-owned
  /// projection). Unknown addresses are ignored (a cache outside catalog
  /// control).
  void OnBytesChanged(ArtifactCache* cache, int64_t delta,
                      bool pinned = false) FAIRHMS_EXCLUDES(mu_);

  /// Marks `cache` most-recently-used; Rebalance evicts coldest-first.
  void Touch(ArtifactCache* cache) FAIRHMS_EXCLUDES(mu_);

  /// Evicts entries until the charged total fits the budget again, from the
  /// coldest cache first; it stays on a victim while each call refunds
  /// bytes. `prefer_keep` (the cache that just served a query) only loses
  /// entries once every other cache is exhausted. A cache whose charged
  /// bytes are all pinned is never picked: evicting from it frees nothing.
  void Rebalance(ArtifactCache* prefer_keep = nullptr) FAIRHMS_EXCLUDES(mu_);

  uint64_t budget_bytes() const FAIRHMS_EXCLUDES(mu_);
  /// Bytes currently charged across every registered cache.
  uint64_t total_bytes() const FAIRHMS_EXCLUDES(mu_);
  /// Entries Rebalance evicted (eviction calls that refunded bytes;
  /// telemetry).
  uint64_t evictions() const FAIRHMS_EXCLUDES(mu_);

  /// Structured form of the ledger for the `stats` op: one entry per
  /// registered cache, sorted by name. `last_touch` is the logical
  /// recency tick Rebalance evicts by (higher = warmer).
  struct LedgerEntry {
    std::string name;
    uint64_t charged_bytes = 0;
    uint64_t last_touch = 0;
  };
  std::vector<LedgerEntry> Ledger() const FAIRHMS_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string name;
    std::function<void()> evict;
    uint64_t charged = 0;
    uint64_t pinned = 0;  ///< Part of `charged` that eviction cannot free.
    uint64_t last_touch = 0;
  };

  // Leaf lock: never held while calling into an ArtifactCache (Rebalance
  // copies the evict callback out and runs it unlocked; Register/Unregister
  // talk to the cache outside their locked scopes).
  mutable Mutex mu_;
  uint64_t budget_ FAIRHMS_GUARDED_BY(mu_);
  uint64_t total_ FAIRHMS_GUARDED_BY(mu_) = 0;
  uint64_t touch_seq_ FAIRHMS_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ FAIRHMS_GUARDED_BY(mu_) = 0;
  std::map<ArtifactCache*, Entry> entries_ FAIRHMS_GUARDED_BY(mu_);
};

/// Cache-optional entry points, one per artifact kind: with a cache they
/// memoize through GetOrBuild, without one they build a transient artifact
/// — either way the bits are identical, and the returned shared_ptr keeps
/// the artifact alive across Clear() and eviction.
std::shared_ptr<const UtilityNet> GetOrSampleNet(ArtifactCache* cache, int d,
                                                 size_t m, Rng* rng);
/// `net` stays alive as long as the evaluator does (NetEvaluator holds a
/// raw pointer into it). Non-empty `cache_rows` are cached
/// (CacheCandidates), then seeded (BuildSeedKeys).
std::shared_ptr<const NetEvaluator> GetOrBuildEvaluator(
    ArtifactCache* cache, const Dataset& data,
    std::shared_ptr<const UtilityNet> net, const std::vector<int>& db_rows,
    const std::vector<int>& cache_rows, int threads);
/// ComputeSkyline(data). This and the two below copy a miss out of the
/// cache's attached SkylineIndex when it describes `data` (SetIndex).
std::shared_ptr<const std::vector<int>> GetOrComputeSkyline(
    ArtifactCache* cache, const Dataset& data);
/// ComputeFairCandidatePool(data, grouping).
std::shared_ptr<const std::vector<int>> GetOrComputeFairPool(
    ArtifactCache* cache, const Dataset& data, const Grouping& grouping);
/// grouping.LiveCounts(data).
std::shared_ptr<const std::vector<int>> GetOrComputeGroupCounts(
    ArtifactCache* cache, const Dataset& data, const Grouping& grouping);

}  // namespace fairhms

#endif  // FAIRHMS_CORE_ARTIFACT_CACHE_H_
