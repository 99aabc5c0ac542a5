#include "api/service.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace fairhms {

namespace {

/// A label an insert op mentions that the column does not know yet; it is
/// registered only once the rest of the op has validated, so a rejected
/// line leaves the table untouched.
struct PendingLabel {
  int col = 0;
  std::string label;
};

/// Converts an insert op's cats entries ({column: label}) into a full code
/// vector without mutating the dataset; columns not mentioned default to
/// code 0, unseen labels land in `pending` with their future codes already
/// in `codes`.
StatusOr<std::vector<int>> CodesFromCats(const InsertRequest& request,
                                         const Dataset& data,
                                         std::vector<PendingLabel>* pending) {
  std::vector<int> codes(static_cast<size_t>(data.num_categorical()), 0);
  if (!request.has_cats) return codes;
  // Future code per column = current label count + pending labels there.
  std::vector<int> next_code(static_cast<size_t>(data.num_categorical()));
  for (int c = 0; c < data.num_categorical(); ++c) {
    next_code[static_cast<size_t>(c)] =
        static_cast<int>(data.categorical(c).labels.size());
  }
  for (const InsertRequest::CatEntry& entry : request.cats) {
    FAIRHMS_ASSIGN_OR_RETURN(const int col,
                             data.FindCategorical(entry.column));
    if (!entry.label_is_string) {
      return Status::InvalidArgument(
          StrFormat("\"cats\" entry '%s' must be a string label",
                    entry.column.c_str()));
    }
    const CategoricalColumn& column = data.categorical(col);
    int code = -1;
    for (size_t i = 0; i < column.labels.size(); ++i) {
      if (column.labels[i] == entry.label) {
        code = static_cast<int>(i);
        break;
      }
    }
    if (code < 0) {
      code = next_code[static_cast<size_t>(col)]++;
      pending->push_back({col, entry.label});
    }
    codes[static_cast<size_t>(col)] = code;
  }
  return codes;
}

bool IsPerDatasetOp(ProtocolOp op) {
  return op == ProtocolOp::kQuery || op == ProtocolOp::kInsert ||
         op == ProtocolOp::kDelete;
}

}  // namespace

ProtocolService::ProtocolService(DatasetCatalog* catalog, ServiceOptions opts)
    : catalog_(catalog), opts_(std::move(opts)) {}

std::string ProtocolService::HandleLine(std::string_view line,
                                        uint64_t line_no) {
  Stopwatch timer;
  Request request;
  Status parse_status;
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    parse_status = parsed.status();
  } else if (!parsed->is_object()) {
    parse_status = Status::InvalidArgument(
        "each query line must be an object");
  } else {
    parse_status = ParseRequest(*parsed, &request);
  }
  if (request.id.empty()) {
    request.id = StrFormat("%llu", static_cast<unsigned long long>(line_no));
  }
  Response response;
  if (parse_status.ok()) {
    response = Execute(request);
  } else {
    response.id = request.id;
    response.op = request.op;
    response.ok = false;
    response.error = parse_status;
    response.has_seq = true;
    response.seq = ++seq_;
    ++failed_;
  }
  metrics_.Record(response.op, response.ok, timer.ElapsedMillis());
  return RenderResponse(response, opts_.envelope);
}

Response ProtocolService::Execute(const Request& request) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  Status status;

  if (IsPerDatasetOp(request.op)) {
    // The envelope labels the routed dataset even when the op fails.
    response.dataset = request.dataset;
    ReaderMutexLock catalog_lock(&catalog_mu_);
    StatusOr<DatasetCatalog::Handle> found = catalog_->Find(request.dataset);
    if (!found.ok()) {
      status = found.status();
      Stamp(&response);
    } else if (request.op == ProtocolOp::kQuery) {
      // Queries share the dataset lock (the session's cache lookups are
      // internally synchronized); mutations hold it exclusively. Two
      // explicit lock scopes around one shared body — the thread-safety
      // analysis cannot follow a lock acquired on only one branch.
      ReaderMutexLock dataset_lock(found->mu);
      status = ExecutePerDataset(request, found->session, &response);
    } else {
      WriterMutexLock dataset_lock(found->mu);
      status = ExecutePerDataset(request, found->session, &response);
      if (status.ok()) ++updates_;
    }
  } else if (request.op == ProtocolOp::kList) {
    ReaderMutexLock catalog_lock(&catalog_mu_);
    response.list.datasets = catalog_->List();
    Stamp(&response);
  } else {
    // Catalog-shape ops quiesce every dataset: register/drop change the
    // entry map under live sessions, save needs a stable table, and stats
    // reads per-session cache counters that in-flight solves would be
    // writing.
    WriterMutexLock catalog_lock(&catalog_mu_);
    switch (request.op) {
      case ProtocolOp::kRegister:
        response.dataset = request.reg.name;
        status = ExecuteRegister(request.reg, &response.reg);
        if (status.ok()) ++updates_;
        break;
      case ProtocolOp::kSave:
        response.dataset = request.save.name;
        status = catalog_->Save(request.save.name, request.save.path);
        response.save.name = request.save.name;
        response.save.path = request.save.path;
        break;
      case ProtocolOp::kDrop:
        response.dataset = request.drop.name;
        status = catalog_->Drop(request.drop.name);
        response.drop.name = request.drop.name;
        if (status.ok()) ++updates_;
        break;
      default:
        ExecuteStats(&response.stats);
        break;
    }
    Stamp(&response);
  }

  if (status.ok()) {
    response.ok = true;
    ++served_;
  } else {
    response.ok = false;
    response.error = status;
    ++failed_;
  }
  return response;
}

void ProtocolService::Stamp(Response* response) {
  response->has_seq = true;
  response->seq = ++seq_;
  response->has_catalog_version = true;
  response->catalog_version = catalog_->version();
}

Status ProtocolService::ExecutePerDataset(const Request& request,
                                          SolverSession* session,
                                          Response* response) {
  const Status status = catalog_->Serve(session, [&] {
    switch (request.op) {
      case ProtocolOp::kQuery:
        return ExecuteQuery(request.query, session, &response->query);
      case ProtocolOp::kInsert:
        return ExecuteInsert(request.insert, session, &response->insert);
      default:
        return ExecuteDelete(request.erase, session, &response->erase);
    }
  });
  // seq is drawn while the serving locks are still held — the
  // linearization contract replay depends on (docs/concurrency.md).
  Stamp(response);
  return status;
}

Status ProtocolService::ExecuteQuery(const QueryRequest& request,
                                     SolverSession* session,
                                     QueryResponse* out) {
  SolverRequest solve;  // data/grouping stay null: the session pins them.
  solve.algorithm = request.algorithm;
  solve.seed = request.has_seed ? request.seed : opts_.default_seed;
  solve.threads = request.has_threads ? request.threads
                                      : opts_.default_threads;
  switch (request.bounds) {
    case QueryRequest::Bounds::kProportional:
      solve.bounds = GroupBounds::Proportional(
          request.k, session->group_counts(), request.alpha);
      break;
    case QueryRequest::Bounds::kBalanced: {
      FAIRHMS_ASSIGN_OR_RETURN(
          solve.bounds,
          GroupBounds::Balanced(request.k, session->grouping().num_groups,
                                request.alpha));
      break;
    }
    case QueryRequest::Bounds::kExplicit: {
      FAIRHMS_ASSIGN_OR_RETURN(
          solve.bounds,
          GroupBounds::Explicit(request.k, request.lower, request.upper));
      break;
    }
  }
  solve.params = request.params;
  solve.latency_budget_ms = request.latency_budget_ms;
  solve.quality_target = request.quality_target;
  solve.allow_warm_start = request.warm_start;

  FAIRHMS_ASSIGN_OR_RETURN(SolverResult run, session->Solve(solve));

  // Reference evaluation against the pinned dataset's global skyline —
  // both the skyline and any evaluation net come from the session cache.
  const Dataset& data = session->data();
  EvalOptions eval_opts;
  eval_opts.threads = solve.threads;
  eval_opts.cache = session->cache();
  const double mhr =
      EvaluateMhr(data, *GetOrComputeSkyline(session->cache(), data),
                  run.solution.rows, eval_opts);

  out->algorithm = run.algorithm;
  out->k = request.k;
  out->seed = solve.seed;
  out->threads = solve.threads;
  out->rows = run.solution.rows;
  out->happiness_ratio = mhr;
  out->algo_mhr_estimate = run.solution.mhr;
  out->violations = run.violations;
  out->group_counts = run.group_counts;
  out->note = run.note;
  out->planned = run.plan.planned;
  out->predicted_ms = run.plan.predicted_ms;
  out->predicted_hr = run.plan.predicted_hr;
  out->plan_reason = run.plan.reason;
  out->plan_params = run.plan.params;
  out->warm_start = run.warm_start_used;
  out->solve_ms = run.solve_ms;
  out->total_ms = run.total_ms;
  return Status::OK();
}

Status ProtocolService::ExecuteInsert(const InsertRequest& request,
                                      SolverSession* session,
                                      InsertResponse* out) {
  Dataset* data = session->mutable_data();
  const std::vector<double>& coords = request.point;
  // Pre-validate the point so a bad line is rejected before this op
  // mutates anything (in particular before new labels register below).
  if (coords.size() != static_cast<size_t>(data->dim())) {
    return Status::InvalidArgument(
        StrFormat("\"point\" has %zu coordinates but the dataset is %d-d",
                  coords.size(), data->dim()));
  }
  for (size_t j = 0; j < coords.size(); ++j) {
    if (!std::isfinite(coords[j]) || coords[j] < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "\"point\" entry %zu (%g) must be finite and nonnegative", j,
          coords[j]));
    }
  }
  std::vector<PendingLabel> pending;
  FAIRHMS_ASSIGN_OR_RETURN(std::vector<int> codes,
                           CodesFromCats(request, *data, &pending));
  // With grouping columns the column values must always be given — a
  // defaulted code would misroute a derived insert or poison the
  // combination table consulted by explicit ones.
  for (const std::string& col : session->group_column_names()) {
    bool given = false;
    if (request.has_cats) {
      for (const InsertRequest::CatEntry& entry : request.cats) {
        if (entry.column == col) {
          given = true;
          break;
        }
      }
    }
    if (!given) {
      return Status::InvalidArgument(StrFormat(
          "inserts must give \"cats\" values for every --group_by column "
          "(missing '%s')", col.c_str()));
    }
  }
  int group = -1;
  if (request.group == InsertRequest::Group::kName) {
    const Grouping& grouping = session->grouping();
    for (int c = 0; c < grouping.num_groups; ++c) {
      if (grouping.names[static_cast<size_t>(c)] == request.group_name) {
        group = c;
        break;
      }
    }
    if (group < 0) {
      return Status::InvalidArgument(StrFormat(
          "unknown group '%s'", request.group_name.c_str()));
    }
  } else if (request.group == InsertRequest::Group::kId) {
    // Range-check before narrowing so huge values fail instead of
    // wrapping onto a valid group id.
    if (request.group_id < 0 ||
        request.group_id >= session->grouping().num_groups) {
      return Status::InvalidArgument(StrFormat(
          "\"group\" %lld out of range (the grouping has %d groups)",
          static_cast<long long>(request.group_id),
          session->grouping().num_groups));
    }
    group = static_cast<int>(request.group_id);
  }
  // Run the session's own routing checks (contradicting explicit group,
  // missing provenance) before this op mutates anything; only then
  // register the labels it introduced and insert.
  FAIRHMS_RETURN_IF_ERROR(session->ResolveInsertGroup(codes, group).status());
  for (const PendingLabel& p : pending) {
    data->AddCategoricalLabel(p.col, p.label);
  }
  FAIRHMS_ASSIGN_OR_RETURN(const int row,
                           session->Insert(coords, codes, group));
  const int assigned =
      session->grouping().group_of[static_cast<size_t>(row)];
  out->row = row;
  out->group = assigned;
  out->group_name = session->grouping().names[static_cast<size_t>(assigned)];
  out->version = session->version();
  out->live_rows = session->data().live_size();
  return Status::OK();
}

Status ProtocolService::ExecuteDelete(const DeleteRequest& request,
                                      SolverSession* session,
                                      DeleteResponse* out) {
  std::vector<int> rows;
  for (const int64_t row : request.rows) {
    // Range-check before narrowing so huge values fail instead of
    // wrapping onto (and tombstoning) a valid row.
    if (row < 0 || static_cast<size_t>(row) >= session->data().size()) {
      return Status::OutOfRange(StrFormat(
          "cannot erase row %lld of a %zu-row dataset",
          static_cast<long long>(row), session->data().size()));
    }
    rows.push_back(static_cast<int>(row));
  }
  FAIRHMS_RETURN_IF_ERROR(session->Erase(rows));
  out->erased = rows.size();
  out->version = session->version();
  out->live_rows = session->data().live_size();
  return Status::OK();
}

Status ProtocolService::ExecuteRegister(const RegisterRequest& request,
                                        RegisterResponse* out) {
  if (request.source == RegisterRequest::Source::kSnapshot) {
    FAIRHMS_RETURN_IF_ERROR(
        catalog_->Load(request.name, request.snapshot_path));
  } else {
    Rng rng(request.has_seed ? request.seed : opts_.default_seed);
    FAIRHMS_ASSIGN_OR_RETURN(
        Dataset raw, MakeSyntheticDataset(request.synthetic, request.n,
                                          request.dim, &rng));
    FAIRHMS_ASSIGN_OR_RETURN(Dataset data,
                             NormalizeDatasetByName(request.normalize,
                                                    std::move(raw)));
    FAIRHMS_ASSIGN_OR_RETURN(
        Grouping grouping,
        BuildGrouping(data, request.has_group_by ? &request.group_by : nullptr,
                      request.groups));
    FAIRHMS_RETURN_IF_ERROR(catalog_->Register(
        request.name, std::move(data), std::move(grouping), request.group_by));
  }
  FAIRHMS_ASSIGN_OR_RETURN(SolverSession * session,
                           catalog_->Session(request.name));
  out->name = request.name;
  out->rows = session->data().live_size();
  out->dim = session->data().dim();
  out->groups = session->grouping().num_groups;
  return Status::OK();
}

void ProtocolService::ExecuteStats(StatsResponse* out) {
  for (const std::string& name : catalog_->List()) {
    auto session_or = catalog_->Session(name);
    if (!session_or.ok()) continue;
    SolverSession* session = *session_or;
    const CacheStats cache = session->cache_stats();
    StatsResponse::DatasetStats ds;
    ds.name = name;
    ds.live_rows = session->data().live_size();
    ds.total_rows = session->data().size();
    ds.dim = session->data().dim();
    ds.groups = session->grouping().num_groups;
    ds.version = session->version();
    ds.coord_bytes = session->data().CoordBytes();
    ds.cache_hits = cache.TotalHits();
    ds.cache_misses = cache.TotalMisses();
    ds.cache_bytes = cache.TotalBytes();
    for (const CacheClass& c : kCacheClasses) {
      const CacheStats::Counter& counter = cache.*c.counter;
      StatsResponse::DatasetStats::CacheClassStats cls;
      cls.name = c.name;
      cls.hits = counter.hits;
      cls.misses = counter.misses;
      cls.bytes = counter.bytes;
      ds.cache_classes.push_back(std::move(cls));
    }
    out->datasets.push_back(std::move(ds));
  }
  const CacheArbiter* arbiter = catalog_->arbiter();
  out->cache_budget_bytes = arbiter->budget_bytes();
  out->cache_total_bytes = arbiter->total_bytes();
  out->cache_evictions = arbiter->evictions();
  for (const CacheArbiter::LedgerEntry& entry : arbiter->Ledger()) {
    out->cache_sessions.push_back(
        {entry.name, entry.charged_bytes, entry.last_touch});
  }
  const OpMetrics::Snapshot metrics = metrics_.snapshot();
  out->served = metrics.served;
  out->failed = metrics.failed;
  out->uptime_ms = metrics.uptime_ms;
  out->qps = metrics.qps;
  out->simd_level = simd::DispatchLevelName(simd::ActiveLevel());
  out->simd_mode = simd::SimdModeName(simd::Mode());
  for (int i = 0; i < kNumProtocolOps; ++i) {
    const OpMetrics::OpSnapshot& op = metrics.ops[static_cast<size_t>(i)];
    if (op.count == 0) continue;
    StatsResponse::OpStats stats;
    stats.op = static_cast<ProtocolOp>(i);
    stats.count = op.count;
    stats.errors = op.errors;
    stats.total_ms = op.total_ms;
    stats.p50_ms = op.p50_ms;
    stats.p99_ms = op.p99_ms;
    out->ops.push_back(stats);
  }
}

Status ProtocolService::SnapshotReload(const std::string& dir) {
  WriterMutexLock catalog_lock(&catalog_mu_);
  const std::vector<std::string> names = catalog_->List();
  // Validate and save everything before the first drop, so a bad name or
  // unwritable directory aborts with the catalog untouched.
  std::vector<std::string> paths;
  for (const std::string& name : names) {
    if (name.empty() || name.find('/') != std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "cannot snapshot dataset '%s': names with '/' have no snapshot "
          "file name", name.c_str()));
    }
    paths.push_back(dir + "/" + name + ".snap");
  }
  for (size_t i = 0; i < names.size(); ++i) {
    FAIRHMS_RETURN_IF_ERROR(catalog_->Save(names[i], paths[i]));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    FAIRHMS_RETURN_IF_ERROR(catalog_->Drop(names[i]));
    FAIRHMS_RETURN_IF_ERROR(catalog_->Load(names[i], paths[i]));
  }
  return Status::OK();
}

}  // namespace fairhms
