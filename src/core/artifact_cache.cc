#include "core/artifact_cache.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>

#include "common/simd.h"
#include "skyline/incremental.h"
#include "skyline/skyline.h"

namespace fairhms {

namespace {

CacheStats::Counter CacheStats::*SlotOf(ArtifactCache::Kind kind) {
  return kCacheClasses[static_cast<size_t>(kind)].counter;
}
static_assert(kCacheClasses[static_cast<size_t>(
                                ArtifactCache::Kind::kGroupCounts)]
                      .counter == &CacheStats::groups,
              "kCacheClasses must list the Kinds first, in order");

uint64_t Sum(const CacheStats& stats, uint64_t CacheStats::Counter::*field) {
  uint64_t total = 0;
  for (const CacheClass& c : kCacheClasses) {
    total += (stats.*c.counter).*field;
  }
  return total;
}

}  // namespace

uint64_t CacheStats::TotalHits() const {
  return Sum(*this, &Counter::hits);
}

uint64_t CacheStats::TotalMisses() const {
  return Sum(*this, &Counter::misses);
}

uint64_t CacheStats::TotalBytes() const {
  return Sum(*this, &Counter::bytes);
}

uint64_t ArtifactBytes(const std::vector<int>& rows) {
  return rows.size() * sizeof(int);
}

uint64_t ArtifactBytes(const SampledNet& net) {
  return net.net.size() * static_cast<uint64_t>(net.net.dim()) *
         sizeof(double);
}

uint64_t ArtifactBytes(const NetEvaluator& evaluator) {
  // Covers the denominators and whatever CacheCandidates and BuildSeedKeys
  // actually allocated (caching declines oversized pools), so the stats
  // never overstate memory. The net it reads is the kNet entry's and is
  // counted there, once.
  return evaluator.ResidentBytes();
}

bool ArtifactCache::Key::operator<(const Key& o) const {
  return std::tie(kind, data, grouping, id) <
         std::tie(o.kind, o.data, o.grouping, o.id);
}

ArtifactCache::Key ArtifactCache::VersionedKey(Kind kind, const Dataset& data,
                                               const Grouping* grouping) {
  const std::pair<uint64_t, uint64_t> version{
      data.version(), grouping != nullptr ? grouping->version : 0};
  // Group counts read only which rows are live, and a 2-D projection has its
  // source's rows, tombstones and version: keyed by the grouping alone, the
  // projection's lookups read the source's entries.
  return {kind, kind == Kind::kGroupCounts ? nullptr : &data, grouping,
          {version.first, version.second}, version};
}

void ArtifactCache::SetIndex(const SkylineIndex* index) {
  MutexLock lock(&mu_);
  index_ = index;
}

const SkylineIndex* ArtifactCache::IndexFor(const Key& key,
                                            const Dataset& data) const {
  MutexLock lock(&mu_);
  const bool describes =
      index_ != nullptr && index_->data() == &data &&
      index_->data_version() == key.version.first &&
      (key.grouping == nullptr ||
       (index_->grouping() == key.grouping &&
        index_->grouping_version() == key.version.second));
  return describes ? index_ : nullptr;
}

void ArtifactCache::SetArbiter(CacheArbiter* arbiter) {
  MutexLock lock(&mu_);
  arbiter_ = arbiter;
}

ArtifactCache::Table::iterator ArtifactCache::Drop(Table::iterator it,
                                                   int64_t* delta) {
  (stats_.*SlotOf(it->first.kind)).bytes -= it->second.bytes;
  *delta -= static_cast<int64_t>(it->second.bytes);
  return entries_.erase(it);
}

void ArtifactCache::Settle(int64_t delta, bool pinned) {
  if (arbiter_ != nullptr && delta != 0) {
    arbiter_->OnBytesChanged(this, delta, pinned);
  }
}

std::shared_ptr<const void> ArtifactCache::GetOrBuildErased(
    const Key& key, const std::function<Entry()>& build) {
  {
    MutexLock lock(&mu_);
    CacheStats::Counter& counter = stats_.*SlotOf(key.kind);
    for (;;) {
      const auto it = entries_.find(key);
      if (it == entries_.end()) break;
      if (it->second.value != nullptr) {
        ++counter.hits;
        it->second.stamp = key.version;
        it->second.last_use = ++use_seq_;
        return it->second.value;
      }
      built_.Wait(mu_);  // Another thread is building this key.
    }
    ++counter.misses;
    entries_.emplace(key, Entry{});  // Pending: same-key misses wait on it.
  }
  Entry built;
  try {
    built = build();
  } catch (...) {
    {
      MutexLock lock(&mu_);
      // Waiters retry and build it themselves.
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.value == nullptr) {
        entries_.erase(it);
      }
    }
    built_.NotifyAll();
    throw;
  }
  Store(key, built);
  return built.value;
}

void ArtifactCache::Store(const Key& key, Entry entry) {
  {
    MutexLock lock(&mu_);
    CacheStats::Counter& counter = stats_.*SlotOf(key.kind);
    int64_t delta = 0;
    // Same kind and owners sort together; drop the stored entries stamped
    // at older versions (nets have no owner and never go stale).
    if (key.data != nullptr || key.grouping != nullptr) {
      auto it =
          entries_.lower_bound({key.kind, key.data, key.grouping, {}, {}});
      while (it != entries_.end() && it->first.kind == key.kind &&
             it->first.data == key.data && it->first.grouping == key.grouping) {
        it = it->second.value != nullptr && it->second.stamp < key.version
                 ? Drop(it, &delta)
                 : std::next(it);
      }
    }
    Entry& slot = entries_[key];
    counter.bytes += entry.bytes - slot.bytes;
    delta += static_cast<int64_t>(entry.bytes) -
             static_cast<int64_t>(slot.bytes);
    entry.stamp = key.version;
    entry.last_use = ++use_seq_;
    slot = std::move(entry);
    Settle(delta);
  }
  built_.NotifyAll();
}

std::vector<int> ArtifactCache::Skyline(const Dataset& data) {
  return *GetOrComputeSkyline(this, data);
}

std::vector<int> ArtifactCache::FairPool(const Dataset& data,
                                         const Grouping& grouping) {
  return *GetOrComputeFairPool(this, data, grouping);
}

CacheStats ArtifactCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void ArtifactCache::AccountProjection(bool hit, uint64_t bytes) {
  MutexLock lock(&mu_);
  if (hit) {
    ++stats_.projections.hits;
    return;
  }
  ++stats_.projections.misses;
  stats_.projections.bytes += bytes;
  Settle(static_cast<int64_t>(bytes), /*pinned=*/true);
}

void ArtifactCache::Clear() {
  MutexLock lock(&mu_);
  int64_t delta = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    // An entry in flight stays: the thread building it publishes it.
    it = it->second.value != nullptr ? Drop(it, &delta) : std::next(it);
  }
  Settle(delta);
}

std::optional<ArtifactCache::Kind> ArtifactCache::EvictLeastRecent() {
  MutexLock lock(&mu_);
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.value == nullptr) continue;  // Its builder publishes it.
    if (victim == entries_.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return std::nullopt;
  const Kind kind = victim->first.kind;
  int64_t delta = 0;
  Drop(victim, &delta);
  Settle(delta);
  return kind;
}

void CacheArbiter::Register(ArtifactCache* cache, std::string name,
                            std::function<void()> evict) {
  const CacheStats stats = cache->stats();
  const uint64_t resident = stats.TotalBytes();
  {
    MutexLock lock(&mu_);
    Entry& entry = entries_[cache];
    total_ -= entry.charged;  // Zero for a fresh registration.
    entry.name = std::move(name);
    entry.evict = std::move(evict);
    entry.charged = resident;
    entry.pinned = stats.projections.bytes;
    entry.last_touch = ++touch_seq_;
    total_ += resident;
  }
  cache->SetArbiter(this);
}

void CacheArbiter::Unregister(ArtifactCache* cache) {
  cache->SetArbiter(nullptr);
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it == entries_.end()) return;
  total_ -= it->second.charged;
  entries_.erase(it);
}

void CacheArbiter::OnBytesChanged(ArtifactCache* cache, int64_t delta,
                                  bool pinned) {
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  // Clamp refunds at zero: the charged figure must never wrap, even if a
  // cache was registered mid-life with bytes it later refunds twice.
  const uint64_t refund =
      delta < 0 ? std::min(static_cast<uint64_t>(-delta), entry.charged) : 0;
  if (delta < 0) {
    entry.charged -= refund;
    total_ -= refund;
    entry.pinned = std::min(entry.pinned, entry.charged);
  } else {
    entry.charged += static_cast<uint64_t>(delta);
    total_ += static_cast<uint64_t>(delta);
    if (pinned) entry.pinned += static_cast<uint64_t>(delta);
  }
}

void CacheArbiter::Touch(ArtifactCache* cache) {
  MutexLock lock(&mu_);
  auto it = entries_.find(cache);
  if (it != entries_.end()) it->second.last_touch = ++touch_seq_;
}

void CacheArbiter::Rebalance(ArtifactCache* prefer_keep) {
  // One entry per callback call, callbacks outside the lock (they re-enter
  // OnBytesChanged to refund). Only caches holding unpinned bytes are
  // candidates, and the coldest stays the victim while its calls refund
  // bytes. A victim whose call refunds nothing (all it has left is pinned
  // or still being built) is exhausted and skipped from then on, so the
  // loop always terminates; that call is not counted.
  std::set<ArtifactCache*> exhausted;
  const auto evictable = [&](ArtifactCache* addr, const Entry& entry) {
    return entry.charged > entry.pinned && exhausted.count(addr) == 0;
  };
  for (;;) {
    std::function<void()> evict;
    ArtifactCache* victim = nullptr;
    uint64_t before = 0;
    {
      MutexLock lock(&mu_);
      if (budget_ == 0 || total_ <= budget_) return;
      uint64_t coldest = 0;
      for (auto& [addr, entry] : entries_) {
        if (addr == prefer_keep || !evictable(addr, entry)) continue;
        if (victim == nullptr || entry.last_touch < coldest) {
          victim = addr;
          coldest = entry.last_touch;
        }
      }
      if (victim == nullptr) {
        // Everything cold is gone; the preferred cache only loses entries
        // when it alone still exceeds the budget.
        auto it = prefer_keep != nullptr ? entries_.find(prefer_keep)
                                         : entries_.end();
        if (it == entries_.end() || !evictable(prefer_keep, it->second)) {
          return;
        }
        victim = prefer_keep;
      }
      evict = entries_[victim].evict;
      before = entries_[victim].charged;
    }
    if (evict) evict();
    MutexLock lock(&mu_);
    const auto it = entries_.find(victim);
    if (it != entries_.end() && it->second.charged < before) {
      ++evictions_;
    } else {
      exhausted.insert(victim);
    }
  }
}

uint64_t CacheArbiter::budget_bytes() const {
  MutexLock lock(&mu_);
  return budget_;
}

uint64_t CacheArbiter::total_bytes() const {
  MutexLock lock(&mu_);
  return total_;
}

uint64_t CacheArbiter::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

std::vector<CacheArbiter::LedgerEntry> CacheArbiter::Ledger() const {
  MutexLock lock(&mu_);
  std::vector<LedgerEntry> ledger;
  ledger.reserve(entries_.size());
  for (const auto& [addr, entry] : entries_) {
    (void)addr;
    ledger.push_back({entry.name, entry.charged, entry.last_touch});
  }
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return a.name < b.name;
            });
  return ledger;
}

std::shared_ptr<const UtilityNet> GetOrSampleNet(ArtifactCache* cache, int d,
                                                 size_t m, Rng* rng) {
  auto sample = [&] {
    Rng stream = *rng;
    UtilityNet net = UtilityNet::SampleRandom(d, m, &stream);
    return std::make_shared<const SampledNet>(
        SampledNet{std::move(net), stream});
  };
  std::shared_ptr<const SampledNet> sampled;
  if (cache == nullptr) {
    sampled = sample();
  } else {
    ArtifactCache::Key key{ArtifactCache::Kind::kNet, nullptr, nullptr,
                           {static_cast<uint64_t>(d), m}, {}};
    const std::array<uint64_t, 6> state = rng->StateKey();
    key.id.insert(key.id.end(), state.begin(), state.end());
    sampled = cache->GetOrBuild<SampledNet>(key, sample);
  }
  *rng = sampled->post_state;  // Continue the stream past the sample.
  return std::shared_ptr<const UtilityNet>(sampled, &sampled->net);
}

namespace {

/// An evaluator bundled with the net it points into (NetEvaluator holds a
/// raw net pointer).
struct EvalWithNet {
  std::shared_ptr<const UtilityNet> net;
  NetEvaluator eval;
  EvalWithNet(std::shared_ptr<const UtilityNet> n, const Dataset& data,
              const std::vector<int>& db_rows, int threads)
      : net(std::move(n)), eval(&data, net.get(), db_rows, threads) {}
};

/// GetOrBuild for the pure functions of (data, grouping), or `compute()`
/// wrapped in a shared_ptr without a cache. A miss reads `copy(index)`
/// instead when the cache's SkylineIndex describes the key.
template <class T, class Compute, class Copy>
std::shared_ptr<const T> GetOrCompute(ArtifactCache* cache,
                                      ArtifactCache::Kind kind,
                                      const Dataset& data,
                                      const Grouping* grouping,
                                      const Compute& compute,
                                      const Copy& copy) {
  if (cache == nullptr) return std::make_shared<const T>(compute());
  const ArtifactCache::Key key =
      ArtifactCache::VersionedKey(kind, data, grouping);
  return cache->GetOrBuild<T>(key, [&] {
    const SkylineIndex* index = cache->IndexFor(key, data);
    return std::make_shared<const T>(index != nullptr ? copy(*index)
                                                      : compute());
  });
}

}  // namespace

std::shared_ptr<const NetEvaluator> GetOrBuildEvaluator(
    ArtifactCache* cache, const Dataset& data,
    std::shared_ptr<const UtilityNet> net, const std::vector<int>& db_rows,
    const std::vector<int>& cache_rows, int threads) {
  auto build = [&] {
    auto holder = std::make_shared<EvalWithNet>(std::move(net), data, db_rows,
                                                threads);
    if (!cache_rows.empty()) {
      holder->eval.CacheCandidates(cache_rows);
      holder->eval.BuildSeedKeys();
    }
    return std::shared_ptr<const NetEvaluator>(holder, &holder->eval);
  };
  if (cache == nullptr) return build();
  // The net's address is identity: the entry's value keeps the net alive,
  // so the address cannot be reused while the entry lives. The layout key
  // ties resident blocks to the data layout and the active dispatch level,
  // so a mid-process simd::SetMode switch builds fresh evaluators. The
  // stamp is the data version: an entry whose row sets survive a mutation
  // keeps hitting (coordinates are immutable) and restamps.
  ArtifactCache::Key key{ArtifactCache::Kind::kEvaluator, &data, nullptr,
                         {reinterpret_cast<uintptr_t>(net.get()),
                          static_cast<uint64_t>(threads), simd::LayoutKey(),
                          db_rows.size()},
                         {data.version(), 0}};
  key.id.insert(key.id.end(), db_rows.begin(), db_rows.end());
  key.id.insert(key.id.end(), cache_rows.begin(), cache_rows.end());
  return cache->GetOrBuild<NetEvaluator>(key, build);
}

std::shared_ptr<const std::vector<int>> GetOrComputeSkyline(
    ArtifactCache* cache, const Dataset& data) {
  return GetOrCompute<std::vector<int>>(
      cache, ArtifactCache::Kind::kSkyline, data, nullptr,
      [&] { return ComputeSkyline(data); },
      [](const SkylineIndex& index) { return index.skyline(); });
}

std::shared_ptr<const std::vector<int>> GetOrComputeFairPool(
    ArtifactCache* cache, const Dataset& data, const Grouping& grouping) {
  return GetOrCompute<std::vector<int>>(
      cache, ArtifactCache::Kind::kFairPool, data, &grouping,
      [&] { return ComputeFairCandidatePool(data, grouping); },
      [](const SkylineIndex& index) { return index.fair_pool(); });
}

std::shared_ptr<const std::vector<int>> GetOrComputeGroupCounts(
    ArtifactCache* cache, const Dataset& data, const Grouping& grouping) {
  return GetOrCompute<std::vector<int>>(
      cache, ArtifactCache::Kind::kGroupCounts, data, &grouping,
      [&] { return grouping.LiveCounts(data); },
      [](const SkylineIndex& index) { return index.live_counts(); });
}

}  // namespace fairhms
