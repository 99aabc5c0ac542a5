// ProtocolService: the one implementation of the FairHMS wire protocol
// (api/protocol.h) over a DatasetCatalog. Both transports — the
// `fairhms_cli` line driver and the fairhms_serve daemon — feed
// request lines through HandleLine and write the returned response line,
// so protocol behavior cannot fork between them.
//
// Concurrency: the batch CLI calls HandleLine from one thread; the daemon
// calls it from a worker pool. Internally:
//
//   * catalog_mu_ (shared_mutex) — catalog-shape ops (register / save /
//     drop / stats / snapshot-reload) take it exclusively; per-dataset ops
//     and list take it shared, so solves on distinct datasets proceed in
//     parallel but never race a registration.
//   * one shared_mutex per dataset name — queries take it shared (solves
//     on the same dataset may share its ArtifactCache read paths),
//     insert/delete take it exclusively.
//   * seq_ — every response is stamped with a global sequence number drawn
//     while its locks are held. Replaying a merged multi-client log in seq
//     order through a fresh service reproduces the exact responses
//     (queries commute under shared locks; mutations serialize), which is
//     how the concurrent integration test checks linearizability.
//   * CacheArbiter calls are serialized by arbiter_mu_; Rebalance — which
//     may evict *other* sessions' caches — runs only under the exclusive
//     catalog lock, after the serving op released its locks, and only when
//     the global total actually exceeds the budget (equivalent to the
//     legacy unconditional call, which no-ops under budget, but safe to
//     run next to concurrent solves).

#ifndef FAIRHMS_API_SERVICE_H_
#define FAIRHMS_API_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "api/catalog.h"
#include "api/metrics.h"
#include "api/protocol.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace fairhms {

struct ServiceOptions {
  /// Seed for queries / register ops that do not carry their own.
  uint64_t default_seed = 42;
  /// Thread count for queries that do not carry their own (0 = all).
  int default_threads = 0;
  /// Envelope of the rendered responses; the default (protocol_version
  /// and "seq" on every line) is what both transports serve.
  EnvelopeOptions envelope;
};

class ProtocolService {
 public:
  /// `catalog` must outlive the service and, in concurrent use, must only
  /// be mutated through the service (the locking above is the only writer
  /// coordination).
  ProtocolService(DatasetCatalog* catalog, ServiceOptions opts);

  /// Serves one raw request line: parse, execute, render. `line_no` is the
  /// 1-based line (or per-connection request) number used as the default
  /// id. Returns the response line without a trailing newline; never
  /// throws or crashes on malformed input — errors become error responses.
  /// Thread-safe.
  std::string HandleLine(std::string_view line, uint64_t line_no);

  /// Typed entry: executes one parsed request (id must already be
  /// resolved, i.e. non-empty). Thread-safe.
  Response Execute(const Request& request);

  /// Successful / failed / catalog-mutating (insert, delete, register,
  /// drop) request counts, matching the legacy batch driver's report.
  uint64_t served() const { return served_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t updates() const { return updates_.load(); }

  OpMetrics* metrics() { return &metrics_; }
  DatasetCatalog* catalog() { return catalog_; }
  const ServiceOptions& options() const { return opts_; }

  /// Quiesces the catalog (exclusive lock), saves every dataset to
  /// `dir/<name>.snap`, then drops and reloads each from its fresh
  /// snapshot — the daemon's SIGHUP handler. Names must be
  /// filesystem-safe (no '/'); saves run for all datasets before any
  /// drop, so a failed save aborts with the catalog untouched.
  Status SnapshotReload(const std::string& dir) FAIRHMS_EXCLUDES(catalog_mu_);

 private:
  std::shared_ptr<SharedMutex> LockFor(const std::string& name)
      FAIRHMS_EXCLUDES(locks_mu_);
  /// Settles the global cache budget after a per-dataset op, outside that
  /// op's locks; prefers keeping `route`'s cache when it must evict.
  void MaybeRebalance(const std::string& route)
      FAIRHMS_EXCLUDES(catalog_mu_, arbiter_mu_);

  /// The locked body of a per-dataset op: session lookup, arbiter Touch,
  /// dispatch, and the seq / catalog_version stamp — all while the caller
  /// holds the catalog lock shared AND the routed dataset's lock (shared
  /// for queries, exclusive for mutations; the dataset lock is dynamic,
  /// so only the catalog capability is expressible here).
  Status ExecutePerDataset(const Request& request, Response* response,
                           bool* mutated)
      FAIRHMS_REQUIRES_SHARED(catalog_mu_);

  Status ExecuteQuery(const QueryRequest& request, SolverSession* session,
                      QueryResponse* out);
  Status ExecuteInsert(const InsertRequest& request, SolverSession* session,
                       InsertResponse* out);
  Status ExecuteDelete(const DeleteRequest& request, SolverSession* session,
                       DeleteResponse* out);
  Status ExecuteRegister(const RegisterRequest& request, RegisterResponse* out)
      FAIRHMS_REQUIRES(catalog_mu_);
  void ExecuteStats(StatsResponse* out) FAIRHMS_REQUIRES(catalog_mu_);

  DatasetCatalog* catalog_;
  const ServiceOptions opts_;
  OpMetrics metrics_;

  // Lock order (docs/concurrency.md): catalog_mu_ -> locks_mu_, and
  // catalog_mu_ -> (per-dataset lock) -> arbiter_mu_. locks_mu_ and
  // arbiter_mu_ are leaves of their chains and never nest with each other.
  SharedMutex catalog_mu_ FAIRHMS_ACQUIRED_BEFORE(locks_mu_, arbiter_mu_);
  Mutex locks_mu_;
  std::map<std::string, std::shared_ptr<SharedMutex>> dataset_locks_
      FAIRHMS_GUARDED_BY(locks_mu_);
  /// Serializes the arbiter's Touch/Rebalance decision windows; the
  /// CacheArbiter itself is internally locked.
  Mutex arbiter_mu_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> updates_{0};
};

}  // namespace fairhms

#endif  // FAIRHMS_API_SERVICE_H_
