// fairhms_cli: the unified driver for every FairHMS / HMS algorithm in the
// library. Loads a CSV or synthetic dataset, applies a grouping, solves via
// the Solver::Solve facade (algorithm selection goes through the
// AlgorithmRegistry — no per-algorithm wiring lives here), and emits the
// happiness ratio, per-group counts versus bounds, fairness violations and
// wall-clock as plain text, CSV or JSON.
//
// Examples:
//   fairhms_cli --list_algos
//   fairhms_cli --algo=intcov --synthetic=independent --n=1000 --dim=4
//       --k=10 --groups=3
//   fairhms_cli --algo=bigreedy --synthetic=anticorrelated --n=20000
//       --dim=6 --k=20 --groups=4 --format=json
//   fairhms_cli --algo=fair_greedy --synthetic=adult --group_by=gender
//       --k=12 --alpha=0.2 --format=csv
//   fairhms_cli --algo=g_dmm --csv=data.csv --numeric=price,rating
//       --categorical=region --group_by=region --k=8

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/catalog.h"
#include "api/service.h"
#include "api/solver.h"
#include "cli_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluate.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "data/snapshot.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

constexpr char kUsage[] = R"(fairhms_cli: unified FairHMS driver.

Dataset (pick one source):
  --csv=PATH               headered CSV file
    --numeric=a,b,c        numeric attribute columns (required with --csv)
    --categorical=x,y      categorical columns to load
  --synthetic=NAME         independent | anticorrelated | correlated |
                           lawschs | adult | compas | credit
    --n=N                  rows (synthetic; replicas default to paper sizes)
    --dim=D                dimensions (independent/anticorrelated/correlated)
  --normalize=MODE         minmax (default) | max | none

Execution (valid with every dataset source and algorithm):
  --seed=S                 seed (>= 0, default 42) for the synthetic
                           generator AND all randomized algorithm parts
                           (BiGreedy/Sphere/HS direction nets); echoed in
                           the output so runs are reproducible
  --threads=N              evaluation-engine lanes; 0 (default) = all
                           hardware threads, 1 = serial. Results are
                           bit-identical across thread counts
  --simd=auto|off          kernel dispatch: auto (default; best level the
                           CPU supports) or off (forced scalar). Overrides
                           the FAIRHMS_SIMD environment variable; results
                           are bit-identical either way

Grouping (pick one):
  --groups=C               C groups by attribute-sum rank (default 1)
  --group_by=col[,col2]    categorical column(s); product when several

Constraint:
  --k=K                    result size (default 10)
  --bounds=KIND            proportional (default) | balanced | explicit
  --alpha=A                tolerance for proportional/balanced (default 0.1)
  --lower=l0,l1,... --upper=h0,h1,...   explicit per-group bounds

Algorithm:
  --algo=NAME              required; any registry name (see --list_algos),
                           or "auto" to let the cost-model planner choose
                           (the choice and prediction are echoed as
                           planned_algorithm / plan_* report fields)
  --list_algos             print every registered algorithm with its
                           capabilities and parameter schema, then exit
  --<param>=V              any parameter of the chosen algorithm's schema
                           becomes a flag (e.g. --net_size, --eps,
                           --lambda, --max_rounds; --list_algos shows
                           names, types and defaults per algorithm).
                           Not combinable with --algo=auto
  --latency_budget_ms=MS   --algo=auto only: prefer the best-quality
                           algorithm predicted to finish within MS
  --quality_target=Q       --algo=auto only: prefer the fastest algorithm
                           predicted to reach happiness ratio >= Q

Output:
  --format=F               plain (default) | csv | json

Batch serving (many queries over a catalog of named datasets):
  --queries=FILE           JSONL file ('-' = stdin): one request object per
                           line, served through a DatasetCatalog of dynamic
                           SolverSessions with cross-query artifact caching.
                           The flag-loaded dataset registers as "default";
                           every line routes by its optional string
                           "dataset" field (default "default"). Per line:
                             {"dataset": "default", "algorithm": "bigreedy",
                              "k": 10,
                              "bounds": "proportional|balanced|explicit",
                              "alpha": 0.1, "lower": [..], "upper": [..],
                              "seed": 42, "threads": 0, "id": any,
                              "params": {"net_size": 500, ...},
                              "latency_budget_ms": 50, "quality_target": 0.8,
                              "warm_start": true}
                           k and algorithm are required ("auto" plans per
                           session cost model and echoes a "plan" object);
                           seed/threads default to the --seed/--threads
                           flags; bounds defaults to proportional. One result JSON is
                           streamed to stdout per line as
                             {"id": .., "ok": true, "dataset": "name",
                              "catalog_version": V, ...result fields...}
                           (catalog_version is the catalog's mutation
                           counter, so each response pins which catalog
                           state served it; errors become
                           {"ok": false, "error": ...} lines without
                           stopping the batch); the cache report goes to
                           stderr. --algo/--k/--bounds/--format and
                           algorithm-parameter flags are ignored here.
                           Update ops interleave with queries; skylines,
                           fair pools and group tables are maintained
                           incrementally, utility nets survive:
                             {"op": "insert", "point": [0.4, ...],
                              "cats": {"gender": "F", ...},
                              "group": "F" | 2, "id": any,
                              "dataset": "name"}
                             {"op": "delete", "rows": [17, 42], "id": any,
                              "dataset": "name"}
                           Inserted points are used as given (they bypass
                           --normalize; supply already-scaled coordinates).
                           "cats" maps categorical columns to labels
                           (unseen labels register themselves); with
                           --group_by the group derives from those columns
                           (new combinations open a new group), otherwise
                           pass "group" explicitly (sum-rank groupings
                           have no rule for new rows). Deleted rows keep
                           their indices but leave every skyline, pool,
                           group count and happiness denominator; a group
                           emptied by deletes gets [0, 0] proportional
                           bounds instead of poisoning feasibility.
                           Catalog ops manage further datasets in-stream:
                             {"op": "register", "name": "x",
                              "synthetic": "independent", "n": 500,
                              "dim": 3, "seed": 7, "groups": 2,
                              "group_by": ["col"], "normalize": "minmax"}
                             {"op": "register", "name": "x",
                              "snapshot": "x.snap"}
                             {"op": "save", "name": "x", "path": "x.snap"}
                             {"op": "drop", "name": "x"}
                             {"op": "list"}
                             {"op": "stats"}
                           (stats reports the catalog contents, per-session
                           cache accounting, the global cache ledger and
                           per-op latency percentiles; docs/protocol.md
                           specifies the full wire protocol, which
                           fairhms_serve exposes over sockets.)
  --global_cache_budget_mb=N
                           process-wide cache budget across every catalog
                           session (default 1024; 0 = unbounded). When the
                           global resident total crosses it, the coldest
                           sessions' caches are evicted first (the serving
                           session last), so an undersized budget degrades
                           to recomputation — results are bit-identical
                           regardless.

Snapshots (versioned binary serving state; see data/snapshot.h):
  --snapshot_save=PATH     after the batch stream completes, write the
                           "default" dataset's full serving state (table,
                           tombstones, grouping, insert-routing provenance,
                           maintained skyline state) to PATH atomically.
  --snapshot_load=PATH     register "default" from a snapshot file instead
                           of --csv/--synthetic: the process warm-starts
                           without re-ingest or skyline recomputation.
                           Corrupt, truncated or future-versioned files are
                           rejected up front. Batch mode only.
  --snapshot_info=PATH     print a snapshot file's summary (rows, dims,
                           groups, format version, skyline state) and exit.
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "fairhms_cli: %s\n", status.ToString().c_str());
  return 1;
}

/// Prints the registry: one block per algorithm with capabilities and the
/// parameter schema (name, type, default, description). The algorithm name
/// is the first token of its line so scripts can match on field 1.
int ListAlgos() {
  // Column 2 is the machine-parseable capability list (awk '$2'): bare
  // comma-separated tokens in a fixed order, "-" when none. CI greps it.
  for (const AlgorithmInfo* info : AlgorithmRegistry::Instance().All()) {
    std::printf("%-12s %-32s %s — %s\n", info->name.c_str(),
                CapabilitiesToString(info->caps).c_str(),
                info->display_name.c_str(), info->summary.c_str());
    for (const ParamSpec& p : info->params) {
      std::printf("    --%s (%s, default %s): %s\n", p.name.c_str(),
                  ParamTypeToString(p.type), p.default_value.c_str(),
                  p.description.c_str());
    }
  }
  return 0;
}

StatusOr<GroupBounds> MakeBounds(const cli::Flags& flags, int k,
                                 const Grouping& grouping) {
  const std::string kind = flags.GetString("bounds", "proportional");
  const double alpha = flags.GetDouble("alpha", 0.1);
  if (kind == "proportional") {
    return GroupBounds::Proportional(k, grouping.Counts(), alpha);
  }
  if (kind == "balanced") {
    return GroupBounds::Balanced(k, grouping.num_groups, alpha);
  }
  if (kind == "explicit") {
    FAIRHMS_ASSIGN_OR_RETURN(std::vector<int> lower,
                             flags.GetIntList("lower"));
    FAIRHMS_ASSIGN_OR_RETURN(std::vector<int> upper,
                             flags.GetIntList("upper"));
    if (static_cast<int>(lower.size()) != grouping.num_groups ||
        static_cast<int>(upper.size()) != grouping.num_groups) {
      return Status::InvalidArgument(StrFormat(
          "--lower/--upper must list %d values", grouping.num_groups));
    }
    return GroupBounds::Explicit(k, std::move(lower), std::move(upper));
  }
  return Status::InvalidArgument(
      StrFormat("unknown --bounds '%s'", kind.c_str()));
}

/// Forwards every flag matching the chosen algorithm's parameter schema
/// into the request's AlgoParams — each entry --list_algos prints is a
/// working --flag. Flags naming a parameter of a *different* algorithm are
/// never looked up here; the end-of-run unknown-flag sweep warns about
/// them ("no effect with the chosen options") like any other unused knob.
Status FillParamsFromFlags(const cli::Flags& flags, const AlgorithmInfo& info,
                           AlgoParams* params) {
  for (const ParamSpec& spec : info.params) {
    if (!flags.Has(spec.name)) continue;
    switch (spec.type) {
      case ParamType::kInt:
        params->SetInt(spec.name, flags.GetInt(spec.name, 0));
        break;
      case ParamType::kDouble:
        params->SetDouble(spec.name, flags.GetDouble(spec.name, 0.0));
        break;
      case ParamType::kBool: {
        // Bare --flag means true; otherwise require true/false (or 1/0).
        const std::string v = flags.GetString(spec.name, "true");
        if (v.empty() || v == "true" || v == "1") {
          params->SetBool(spec.name, true);
        } else if (v == "false" || v == "0") {
          params->SetBool(spec.name, false);
        } else {
          return Status::InvalidArgument(
              StrFormat("--%s wants true or false, got '%s'",
                        spec.name.c_str(), v.c_str()));
        }
        break;
      }
      case ParamType::kString:
        params->SetString(spec.name, flags.GetString(spec.name, ""));
        break;
    }
  }
  return Status::OK();
}

/// Every parameter name registered by any algorithm: a flag in this set
/// that went unused is "documented but without effect here", not a typo.
std::set<std::string> AllRegisteredParamNames() {
  std::set<std::string> names;
  for (const AlgorithmInfo* info : AlgorithmRegistry::Instance().All()) {
    for (const ParamSpec& p : info->params) names.insert(p.name);
  }
  return names;
}

/// Warns on flags never looked up on the taken code path: a documented
/// flag (the driver flags plus any algorithm parameter in the registry) is
/// merely unused with the chosen options, anything else is a likely typo.
/// Both serving modes run this so a typo never silently changes a run.
void WarnUnusedFlags(const cli::Flags& flags) {
  std::set<std::string> documented = AllRegisteredParamNames();
  documented.insert({"csv", "numeric", "categorical", "synthetic", "n",
                     "dim", "seed", "normalize", "groups", "group_by", "k",
                     "bounds", "alpha", "lower", "upper", "algo", "format",
                     "latency_budget_ms", "quality_target",
                     "threads", "simd", "list_algos", "queries",
                     "global_cache_budget_mb", "snapshot_save",
                     "snapshot_load", "snapshot_info", "help"});
  for (const auto& key : flags.Unknown()) {
    if (documented.count(key)) {
      std::fprintf(stderr,
                   "fairhms_cli: warning: --%s has no effect with the "
                   "chosen options; ignored\n",
                   key.c_str());
    } else {
      std::fprintf(stderr, "fairhms_cli: warning: unknown flag --%s ignored\n",
                   key.c_str());
    }
  }
}

/// --snapshot_info: print a snapshot file's summary and exit.
int RunSnapshotInfo(const std::string& path) {
  auto snapshot = ReadSnapshotFile(path);
  if (!snapshot.ok()) return Fail(snapshot.status());
  const Dataset& data = snapshot->data;
  std::printf("snapshot: %s\n", path.c_str());
  std::printf("  reader format version: %u\n", kSnapshotFormatVersion);
  std::printf("  rows: %zu total, %zu live\n", data.size(), data.live_size());
  std::printf("  dim: %d\n", data.dim());
  std::printf("  dataset version: %llu\n",
              static_cast<unsigned long long>(data.version()));
  std::printf("  groups: %d\n", snapshot->grouping.num_groups);
  std::string cols;
  for (const std::string& c : snapshot->group_columns) {
    cols += (cols.empty() ? "" : ", ") + c;
  }
  std::printf("  group columns: %s\n", cols.empty() ? "(none)" : cols.c_str());
  std::printf("  insert-routing combinations: %zu\n",
              snapshot->combo_to_group.size());
  if (snapshot->has_index) {
    std::printf("  skyline state: present (%zu global skyline rows, "
                "%zu per-group states)\n",
                snapshot->index.global.skyline.size(),
                snapshot->index.per_group.size());
  } else {
    std::printf("  skyline state: absent (rebuilds lazily)\n");
  }
  return 0;
}

/// The --queries batch driver: a DatasetCatalog of dynamic SolverSessions
/// (the flag-loaded dataset is "default"), one result JSON per request
/// line, routed by each line's "dataset" field.
int RunBatch(const cli::Flags& flags, uint64_t seed, int threads) {
  Stopwatch total;
  // Process-wide bound on resident cache bytes across every catalog
  // session: an unbounded seed/k sweep would pin a fresh net + evaluator
  // per line forever. The arbiter evicts the coldest sessions' caches
  // when the global total crosses it (results are bit-identical either
  // way); 0 disables.
  auto budget_bytes = cli::ResolveCacheBudgetBytes(flags);
  if (!budget_bytes.ok()) return Fail(budget_bytes.status());
  DatasetCatalog catalog(DatasetCatalog::Options{*budget_bytes});

  // The flag-described dataset registers as "default": restored warm from
  // a snapshot, or ingested cold from --csv/--synthetic. With --group_by
  // the named columns route inserted rows to their groups; otherwise
  // inserts need an explicit "group".
  if (flags.Has("snapshot_load")) {
    if (flags.Has("csv") || flags.Has("synthetic")) {
      return Fail(Status::InvalidArgument(
          "--snapshot_load replaces --csv/--synthetic; pass exactly one "
          "dataset source"));
    }
    if (Status st =
            catalog.Load("default", flags.GetString("snapshot_load", ""));
        !st.ok()) {
      return Fail(st);
    }
  } else {
    Rng rng(seed);
    auto raw = cli::LoadDatasetFromFlags(flags, &rng);
    if (!raw.ok()) return Fail(raw.status());
    auto data = cli::NormalizeDatasetFromFlags(flags, std::move(*raw));
    if (!data.ok()) return Fail(data.status());
    auto grouping = cli::MakeGroupingFromFlags(flags, *data);
    if (!grouping.ok()) return Fail(grouping.status());
    if (Status st = catalog.Register("default", std::move(*data),
                                     std::move(*grouping),
                                     flags.GetList("group_by"));
        !st.ok()) {
      return Fail(st);
    }
  }

  // Looked up here — before the unused-flag sweep — though the save runs
  // after the stream, over the final mutated state.
  const std::string snapshot_save =
      flags.Has("snapshot_save") ? flags.GetString("snapshot_save", "")
                                 : std::string();

  const std::string path = flags.GetString("queries", "");
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      return Fail(Status::IOError("cannot open --queries=" + path));
    }
  }
  std::istream& in = path == "-" ? std::cin : file;
  if (Status st = flags.ParseError(); !st.ok()) return Fail(st);
  // Every driver flag has been looked up by now; surface typos before the
  // batch streams (a misspelled --groups must not silently serve the whole
  // sweep against the default grouping).
  WarnUnusedFlags(flags);

  // The batch driver is one of two thin transports over the shared
  // ProtocolService (the fairhms_serve daemon is the other): parsing,
  // execution and rendering all live in the library, so the wire format
  // cannot fork between them. The default-constructed EnvelopeOptions keep
  // the legacy version-0 envelope — batch output stays bit-identical.
  ServiceOptions service_opts;
  service_opts.default_seed = seed;
  service_opts.default_threads = threads;
  ProtocolService service(&catalog, service_opts);

  uint64_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::string response = service.HandleLine(line, line_no);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  const size_t served = static_cast<size_t>(service.served());
  const size_t failed = static_cast<size_t>(service.failed());
  const size_t updates = static_cast<size_t>(service.updates());

  if (!snapshot_save.empty()) {
    if (Status st = catalog.Save("default", snapshot_save); !st.ok()) {
      return Fail(st);
    }
  }

  // Stderr report: aggregate totals, then per-session detail, then the
  // arbiter's global line — per-session bytes and the global charged
  // total are printed side by side so they can be checked against each
  // other.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;
  for (const std::string& name : catalog.List()) {
    auto s = catalog.Session(name);
    if (!s.ok()) continue;
    const CacheStats stats = (*s)->cache_stats();
    hits += stats.TotalHits();
    misses += stats.TotalMisses();
    bytes += stats.TotalBytes();
  }
  std::fprintf(stderr,
               "fairhms_cli: served %zu lines (%zu updates, %zu failed) in "
               "%.1f ms; cache: %llu hits, %llu misses, %.1f KiB resident, "
               "%llu budget evictions\n",
               served, updates, failed, total.ElapsedMillis(),
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses),
               static_cast<double>(bytes) / 1024.0,
               static_cast<unsigned long long>(
                   catalog.arbiter()->evictions()));
  for (const std::string& name : catalog.List()) {
    auto s = catalog.Session(name);
    if (!s.ok()) continue;
    std::fprintf(stderr, "fairhms_cli: cache detail [%s]: %s\n", name.c_str(),
                 (*s)->cache_stats().ToString().c_str());
  }
  std::fprintf(stderr, "fairhms_cli: %s\n",
               catalog.arbiter()->ToString().c_str());
  return failed == 0 ? 0 : 3;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  if (flags.Has("help") || argc <= 1) {
    std::fputs(kUsage, stdout);
    return argc <= 1 ? 1 : 0;
  }
  if (flags.Has("list_algos")) return ListAlgos();
  if (flags.Has("snapshot_info")) {
    return RunSnapshotInfo(flags.GetString("snapshot_info", ""));
  }

  // --seed and --threads apply to every dataset source, algorithm and
  // serving mode; validate them up front so no path accepts garbage
  // silently.
  const int64_t seed_raw = flags.GetInt("seed", 42);
  if (seed_raw < 0) {
    return Fail(Status::InvalidArgument("--seed must be >= 0"));
  }
  const int64_t threads_raw = flags.GetInt("threads", 0);
  if (threads_raw < 0 || threads_raw > 4096) {
    return Fail(Status::InvalidArgument(
        "--threads must be in [0, 4096] (0 = all hardware threads)"));
  }
  SetDefaultThreads(static_cast<int>(threads_raw));
  const int threads = DefaultThreads();
  if (Status st = cli::ApplySimdFlags(flags); !st.ok()) return Fail(st);

  if (flags.Has("queries")) {
    return RunBatch(flags, static_cast<uint64_t>(seed_raw),
                    static_cast<int>(threads_raw));
  }
  if (flags.Has("snapshot_load") || flags.Has("snapshot_save")) {
    return Fail(Status::InvalidArgument(
        "--snapshot_load/--snapshot_save serve the --queries batch mode; "
        "use --snapshot_info to inspect a file"));
  }

  Stopwatch total;
  // Resolve the algorithm up front (fail fast before a long dataset load);
  // the unknown-name message comes straight from the registry.
  const std::string algo = flags.GetString("algo", "");
  if (algo.empty()) {
    return Fail(Status::InvalidArgument(StrFormat(
        "--algo is required (one of: %s; see --list_algos or --help)",
        AlgorithmRegistry::Instance().NamesForError().c_str())));
  }
  // "auto" defers the choice to the session planner (src/plan) — there is
  // no schema to resolve here; the chosen algorithm is echoed in the
  // report's plan fields.
  const bool auto_algo = algo == "auto";
  const AlgorithmInfo* info =
      auto_algo ? nullptr : AlgorithmRegistry::Instance().Find(algo);
  if (info == nullptr && !auto_algo) {
    return Fail(Status::InvalidArgument(
        StrFormat("unknown --algo '%s' (valid: auto, %s)", algo.c_str(),
                  AlgorithmRegistry::Instance().NamesForError().c_str())));
  }
  const int k = static_cast<int>(flags.GetInt("k", 10));
  if (k < 1) return Fail(Status::InvalidArgument("--k must be >= 1"));
  // Reject a bad --format up front: a typo must not discard a long solve.
  const std::string format = flags.GetString("format", "plain");
  if (format != "plain" && format != "csv" && format != "json") {
    return Fail(Status::InvalidArgument(StrFormat(
        "unknown --format '%s' (want plain, csv or json)", format.c_str())));
  }

  Rng rng(static_cast<uint64_t>(seed_raw));
  auto raw = cli::LoadDatasetFromFlags(flags, &rng);
  if (!raw.ok()) return Fail(raw.status());

  auto normalized = cli::NormalizeDatasetFromFlags(flags, std::move(*raw));
  if (!normalized.ok()) return Fail(normalized.status());
  Dataset data = std::move(*normalized);

  auto grouping = cli::MakeGroupingFromFlags(flags, data);
  if (!grouping.ok()) return Fail(grouping.status());

  auto bounds = MakeBounds(flags, k, *grouping);
  if (!bounds.ok()) return Fail(bounds.status());

  SolverRequest request;
  request.data = &data;
  request.grouping = &*grouping;
  request.bounds = std::move(*bounds);
  request.algorithm = algo;
  request.seed = static_cast<uint64_t>(seed_raw);
  request.threads = static_cast<int>(threads_raw);
  const double latency_budget = flags.GetDouble("latency_budget_ms", 0.0);
  const double quality_target = flags.GetDouble("quality_target", 0.0);
  if (latency_budget < 0.0) {
    return Fail(Status::InvalidArgument("--latency_budget_ms must be >= 0"));
  }
  if (quality_target < 0.0 || quality_target > 1.0) {
    return Fail(Status::InvalidArgument("--quality_target must be in [0, 1]"));
  }
  request.latency_budget_ms = latency_budget;
  request.quality_target = quality_target;
  if (!auto_algo) {
    // With --algo=auto there is no schema yet: parameter flags would be
    // ambiguous across candidates, so only the planner may set params.
    if (Status st = FillParamsFromFlags(flags, *info, &request.params);
        !st.ok()) {
      return Fail(st);
    }
  }
  // Refuse to solve with defaults substituted for malformed numeric flags.
  if (Status st = flags.ParseError(); !st.ok()) return Fail(st);

  auto run = Solver::Solve(request);
  if (!run.ok()) return Fail(run.status());
  const Solution& sol = run->solution;

  // Reference evaluation against the global skyline (exact 2D / exact LP /
  // high-resolution net, picked automatically), reusing the facade's
  // skyline when it computed one.
  const std::vector<int> skyline =
      run->skyline.empty() ? ComputeSkyline(data) : std::move(run->skyline);
  const double mhr = EvaluateMhr(data, skyline, sol.rows);

  cli::Report report;
  report.AddString("algo", sol.algorithm.empty() ? algo : sol.algorithm);
  report.AddString("dataset", flags.Has("csv")
                                  ? flags.GetString("csv", "")
                                  : flags.GetString("synthetic", ""));
  report.AddInt("n", static_cast<int64_t>(data.size()));
  report.AddInt("dim", data.dim());
  report.AddInt("k", k);
  report.AddInt("groups", grouping->num_groups);
  report.AddInt("seed", seed_raw);
  report.AddInt("threads", threads);
  report.AddInt("solution_size", static_cast<int64_t>(sol.rows.size()));
  report.AddDouble("happiness_ratio", mhr);
  report.AddDouble("algo_mhr_estimate", sol.mhr);
  report.AddInt("violations", run->violations);
  if (run->plan.planned) {
    report.AddString("planned_algorithm", run->algorithm);
    report.AddDouble("plan_predicted_ms", run->plan.predicted_ms);
    report.AddString("plan_reason", run->plan.reason);
    if (!run->plan.params.empty()) {
      report.AddString("plan_params", run->plan.params);
    }
  }
  for (int c = 0; c < grouping->num_groups; ++c) {
    const auto& name = grouping->names[static_cast<size_t>(c)];
    report.AddString(
        StrFormat("group_%s", name.c_str()),
        StrFormat("%d of bounds [%d, %d]",
                  run->group_counts[static_cast<size_t>(c)],
                  run->bounds.lower[static_cast<size_t>(c)],
                  run->bounds.upper[static_cast<size_t>(c)]));
  }
  std::vector<std::string> rows;
  for (int r : sol.rows) rows.push_back(StrFormat("%d", r));
  report.AddString("rows", Join(rows, " "));
  if (!run->note.empty()) report.AddString("note", run->note);
  report.AddDouble("solve_ms", run->solve_ms);
  report.AddDouble("total_ms", total.ElapsedMillis());

  auto rendered = report.Render(format);
  if (!rendered.ok()) return Fail(rendered.status());
  WarnUnusedFlags(flags);
  std::fputs(rendered->c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
