#include "common/simd.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <new>

#include "common/simd_kernels.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"

namespace fairhms {
namespace simd {

namespace internal {

// ---------------------------------------------------------------------------
// Scalar table: the reference semantics, verbatim from simd_kernels.h.

const KernelTable* ScalarKernels() {
  static const KernelTable table = {
      DispatchLevel::kScalar, NetBestScalar,        HappinessRangeScalar,
      HappinessRangeUpScalar, MhrRangeScalar,       AddHappinessMaxScalar,
      TruncGainCachedScalar,  TruncGainEvalScalar,   TruncSumScalar,
      MinReduceScalar,        RowSumsScalar,         AnyDominatesScalar,
      AnyWeakDominatesScalar,
  };
  return &table;
}

std::vector<const KernelTable*> RunnableKernels() {
  std::vector<const KernelTable*> tables = {ScalarKernels()};
  // The W = 2 body needs only the baseline ISA; other targets run scalar.
#if defined(__SSE2__)
  static constexpr KernelTable w2 = MakeTable<2>(DispatchLevel::kSse2);
  tables.push_back(&w2);
#elif defined(__aarch64__)
  static constexpr KernelTable w2 = MakeTable<2>(DispatchLevel::kNeon);
  tables.push_back(&w2);
#endif
#if defined(__GNUC__) && defined(__x86_64__)
  if (Avx2Kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    tables.push_back(Avx2Kernels());
  }
#endif
  return tables;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatch state. A single atomic table pointer; SetMode() stores it, every
// kernel wrapper loads it once per call. Lazy first use reads FAIRHMS_SIMD
// exactly once (tools pre-validate with ValidateSimdEnv so users get a
// clean refusal; the lazy path warns and runs in auto mode on bad values).

namespace {

using internal::KernelTable;

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_mode{static_cast<int>(SimdMode::kAuto)};
std::once_flag g_env_once;

const KernelTable* BestTable() {
  static const KernelTable* const best = internal::RunnableKernels().back();
  return best;
}

void ApplyMode(SimdMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  g_table.store(mode == SimdMode::kOff ? internal::ScalarKernels()
                                       : BestTable(),
                std::memory_order_release);
}

/// Consumes the env exactly once. SetMode() runs the no-op branch first so
/// an explicit mode can never be overwritten by a racing lazy init.
void ConsumeEnvOnce(bool from_set_mode) {
  std::call_once(g_env_once, [from_set_mode] {
    if (from_set_mode) return;
    SimdMode mode = SimdMode::kAuto;
    const char* env = std::getenv("FAIRHMS_SIMD");
    if (env != nullptr && *env != '\0') {
      StatusOr<SimdMode> parsed = ParseSimdMode(env);
      if (parsed.ok()) {
        mode = *parsed;
      } else {
        std::fprintf(stderr,
                     "fairhms: ignoring invalid FAIRHMS_SIMD=\"%s\" "
                     "(want \"auto\" or \"off\"); running with auto\n",
                     env);
      }
    }
    ApplyMode(mode);
  });
}

const KernelTable* Active() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  ConsumeEnvOnce(/*from_set_mode=*/false);
  return g_table.load(std::memory_order_acquire);
}

}  // namespace

StatusOr<SimdMode> ParseSimdMode(const std::string& text) {
  if (text == "auto") return SimdMode::kAuto;
  if (text == "off") return SimdMode::kOff;
  return Status::InvalidArgument(
      StrFormat("invalid SIMD mode \"%s\": want \"auto\" or \"off\"",
                text.c_str()));
}

Status ValidateSimdEnv() {
  const char* env = std::getenv("FAIRHMS_SIMD");
  if (env == nullptr || *env == '\0') return Status::OK();
  StatusOr<SimdMode> parsed = ParseSimdMode(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("FAIRHMS_SIMD must be \"auto\" or \"off\", got \"%s\"",
                  env));
  }
  return Status::OK();
}

void SetMode(SimdMode mode) {
  ConsumeEnvOnce(/*from_set_mode=*/true);
  ApplyMode(mode);
}

SimdMode Mode() {
  Active();  // Ensure env-derived mode is resolved.
  return static_cast<SimdMode>(g_mode.load(std::memory_order_relaxed));
}

DispatchLevel DetectedLevel() { return BestTable()->level; }

DispatchLevel ActiveLevel() { return Active()->level; }

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse2:
      return "sse2";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

const char* SimdModeName(SimdMode mode) {
  return mode == SimdMode::kOff ? "off" : "auto";
}

uint32_t LayoutKey() {
  return (static_cast<uint32_t>(kLayoutVersion) << 8) |
         static_cast<uint32_t>(ActiveLevel());
}

// ---------------------------------------------------------------------------
// Public kernel wrappers.

void NetBestRange(const double* const* net, size_t j0, size_t j1,
                  const double* pts, size_t nrows, size_t d, double* best) {
  Active()->net_best(net, j0, j1, pts, nrows, d, best);
}

void HappinessRange(const double* const* net, size_t j0, size_t j1,
                    const double* p, size_t d, const double* best, double eps,
                    double* out) {
  Active()->happiness_range(net, j0, j1, p, d, best, eps, out);
}

void HappinessRangeUp(const double* const* net, size_t j0, size_t j1,
                      const double* p, size_t d, const double* best,
                      double eps, Cell* out) {
  Active()->happiness_range_up(net, j0, j1, p, d, best, eps, out);
}

double MhrRange(const double* const* net, size_t j0, size_t j1,
                const double* best, double eps, const double* pts,
                size_t nrows, size_t d) {
  return Active()->mhr_range(net, j0, j1, best, eps, pts, nrows, d);
}

void AddHappinessMax(const double* const* net, size_t j0, size_t j1,
                     const double* p, size_t d, const double* best, double eps,
                     double* cur) {
  Active()->add_happiness_max(net, j0, j1, p, d, best, eps, cur);
}

void AllQuads(size_t n, std::vector<uint32_t>* quads) {
  quads->resize(n / kSumLanes);
  for (size_t i = 0; i < quads->size(); ++i) {
    (*quads)[i] = static_cast<uint32_t>(i * kSumLanes);
  }
}

void DropDeadQuads(const double* cur, double tau,
                   std::vector<uint32_t>* quads) {
  size_t kept = 0;
  for (const uint32_t j : *quads) {
    const double* c = cur + j;
    if (c[0] < tau || c[1] < tau || c[2] < tau || c[3] < tau) {
      (*quads)[kept++] = j;
    }
  }
  quads->resize(kept);
}

double TruncGainCached(const Cell* hrow, const double* cur, size_t n,
                       double tau, QuadList quads) {
  return Active()->trunc_gain_cached(hrow, cur, n, tau, quads);
}

double TruncGainCap(const double* cur, size_t n, double tau) {
  // The scalar reference of TruncGainCached over every quad with every
  // cell's value 1.0; every level sums in this order, so no table entry
  // is needed.
  return internal::CanonicalSumScalar(
      n, [&](size_t j) { return internal::TruncTerm(cur[j], 1.0, tau); });
}

double TruncGainEval(const double* const* net, size_t m, const double* p,
                     size_t d, const double* best, double eps,
                     const double* cur, double tau, QuadList quads) {
  return Active()->trunc_gain_eval(net, m, p, d, best, eps, cur, tau, quads);
}

double TruncSum(const double* cur, size_t n, double tau) {
  return Active()->trunc_sum(cur, n, tau);
}

double MinReduce(const double* x, size_t n) {
  return Active()->min_reduce(x, n);
}

void RowSums(const double* const* cols, size_t nrows, size_t d, double* out) {
  Active()->row_sums(cols, nrows, d, out);
}

bool AnyDominates(const double* const* cols, size_t nrows, size_t d,
                  const double* p) {
  return Active()->any_dominates(cols, nrows, d, p);
}

bool AnyWeaklyDominates(const double* const* cols, size_t nrows, size_t d,
                        const double* p) {
  return Active()->any_weak_dominates(cols, nrows, d, p);
}

// ---------------------------------------------------------------------------
// Scratch-buffer pool.

namespace {

/// Idle-block recycler behind ScratchBuffer. Bounded (simd.h) so evicted
/// buffers cannot accumulate invisibly: at most kScratchPoolMaxEntries
/// blocks and kScratchPoolMaxBytes in all. A release that would pass
/// either bound first frees the oldest idle blocks. A block only goes out
/// as a close fit (capacity <= request + request / 8), so a small request
/// never holds a large block while the artifact cache charges it for the
/// cells it asked for. Blocks are mapped and unmapped directly: a freed
/// block leaves the process instead of stranding in a worker thread's
/// malloc arena. The state is heap-allocated once and intentionally leaked
/// so ScratchBuffers with static storage duration can release safely
/// during process teardown.
struct ScratchPool {
  Mutex mu;
  struct Entry {
    Cell* ptr;
    size_t cap;  // Cells.
  };
  /// Idle blocks, oldest release first.
  Entry entries[kScratchPoolMaxEntries] FAIRHMS_GUARDED_BY(mu);
  size_t count FAIRHMS_GUARDED_BY(mu) = 0;
  size_t bytes FAIRHMS_GUARDED_BY(mu) = 0;

  /// Removes entries[i], keeping the rest in release order.
  Entry Take(size_t i) FAIRHMS_REQUIRES(mu) {
    const Entry entry = entries[i];
    for (size_t j = i + 1; j < count; ++j) entries[j - 1] = entries[j];
    --count;
    bytes -= entry.cap * sizeof(Cell);
    return entry;
  }
};

ScratchPool& Pool() {
  static ScratchPool* pool = new ScratchPool;
  return *pool;
}

/// Page-aligned (so kAlign-aligned) fresh pages.
Cell* ScratchAlloc(size_t cap) {
  void* ptr = mmap(nullptr, cap * sizeof(Cell), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (ptr == MAP_FAILED) throw std::bad_alloc();
  return static_cast<Cell*>(ptr);
}

void ScratchFree(const ScratchPool::Entry& block) {
  munmap(block.ptr, block.cap * sizeof(Cell));
}

/// The smallest pooled block with n <= capacity <= n + n / 8, or nullptr.
Cell* PoolAcquire(size_t n, size_t* cap_out) {
  ScratchPool& pool = Pool();
  MutexLock lock(&pool.mu);
  size_t pick = pool.count;
  for (size_t i = 0; i < pool.count; ++i) {
    const size_t cap = pool.entries[i].cap;
    if (cap < n || cap - n > n / 8) continue;
    if (pick == pool.count || cap < pool.entries[pick].cap) pick = i;
  }
  if (pick == pool.count) return nullptr;
  const ScratchPool::Entry entry = pool.Take(pick);
  *cap_out = entry.cap;
  return entry.ptr;
}

/// Pools the block, freeing the oldest idle blocks it would not fit
/// beside; a block over the whole byte bound is freed at once.
void PoolRelease(Cell* ptr, size_t cap) {
  ScratchPool& pool = Pool();
  const size_t bytes = cap * sizeof(Cell);
  ScratchPool::Entry freed[kScratchPoolMaxEntries + 1];
  size_t freed_count = 0;
  {
    MutexLock lock(&pool.mu);
    if (bytes > kScratchPoolMaxBytes) {
      freed[freed_count++] = {ptr, cap};
    } else {
      while (pool.count == kScratchPoolMaxEntries ||
             pool.bytes + bytes > kScratchPoolMaxBytes) {
        freed[freed_count++] = pool.Take(0);
      }
      pool.entries[pool.count++] = {ptr, cap};
      pool.bytes += bytes;
    }
  }
  for (size_t i = 0; i < freed_count; ++i) ScratchFree(freed[i]);
}

}  // namespace

void ScratchBuffer::ResizeUninitialized(size_t n) {
  if (n <= cap_) {
    size_ = n;
    return;
  }
  Release();
  size_t cap = 0;
  Cell* ptr = PoolAcquire(n, &cap);
  if (ptr == nullptr) {
    cap = n;
    ptr = ScratchAlloc(cap);
  }
  data_ = ptr;
  cap_ = cap;
  size_ = n;
}

void ScratchBuffer::Release() {
  if (data_ != nullptr) PoolRelease(data_, cap_);
  data_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

size_t ScratchPoolIdleBytes() {
  ScratchPool& pool = Pool();
  MutexLock lock(&pool.mu);
  return pool.bytes;
}

void ScratchPoolTrim() {
  ScratchPool& pool = Pool();
  ScratchPool::Entry drained[kScratchPoolMaxEntries];
  size_t drained_count = 0;
  {
    MutexLock lock(&pool.mu);
    drained_count = pool.count;
    for (size_t i = 0; i < pool.count; ++i) drained[i] = pool.entries[i];
    pool.count = 0;
    pool.bytes = 0;
  }
  for (size_t i = 0; i < drained_count; ++i) ScratchFree(drained[i]);
}

}  // namespace simd
}  // namespace fairhms
