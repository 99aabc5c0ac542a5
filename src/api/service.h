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
//   * the routed dataset's lock, which its catalog entry carries
//     (DatasetCatalog::Find hands it out with the session) — queries take
//     it shared (solves on the same dataset may share its ArtifactCache
//     read paths), insert/delete take it exclusively. A line naming an
//     unknown dataset takes none and leaves nothing behind.
//   * seq_ — every response is stamped with a global sequence number drawn
//     while its locks are held. Replaying a merged multi-client log in seq
//     order through a fresh service reproduces the exact responses
//     (queries commute under shared locks; mutations serialize), which is
//     how the concurrent integration test checks linearizability.
//   * CacheArbiter calls take no service lock: the arbiter locks each call
//     itself. Each per-dataset op runs through DatasetCatalog::Serve
//     (touch → serve → settle) under both of its locks; the settle step's
//     Rebalance may evict *other* sessions' entries, and two racing
//     rebalances at worst evict one entry more than needed. Evicting next
//     to in-flight solves is safe: they hold their cached artifacts by
//     shared_ptr.

#ifndef FAIRHMS_API_SERVICE_H_
#define FAIRHMS_API_SERVICE_H_

#include <atomic>
#include <cstdint>
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
  /// Stamps `response` with the next seq and the catalog version; the
  /// caller holds the locks that serve it (the linearization contract).
  void Stamp(Response* response) FAIRHMS_REQUIRES_SHARED(catalog_mu_);

  /// The locked body of a per-dataset op on `session`: dispatch through
  /// DatasetCatalog::Serve, then the stamp — all while the caller holds
  /// the catalog lock shared AND the dataset's lock (shared for queries,
  /// exclusive for mutations; the dataset lock is dynamic, so only the
  /// catalog capability is expressible here).
  Status ExecutePerDataset(const Request& request, SolverSession* session,
                           Response* response)
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

  // Lock order (docs/concurrency.md): catalog_mu_ -> (the dataset lock
  // its catalog entry carries); the arbiter's and the caches' own locks
  // come after both.
  SharedMutex catalog_mu_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> updates_{0};
};

}  // namespace fairhms

#endif  // FAIRHMS_API_SERVICE_H_
