// fairhms_cli: the command-line client of the FairHMS wire protocol. It
// registers the flag-described dataset (CSV, synthetic, or a snapshot) as
// "default" in a DatasetCatalog and serves request lines through the same
// ProtocolService as the fairhms_serve daemon, so both answer in one
// envelope, rendered by the library (docs/protocol.md). With --queries
// the lines come from a JSONL stream; without it the solve flags
// (--algo, --k, --bounds, ...) become one request line.
//
// Examples:
//   fairhms_cli --list_algos
//   fairhms_cli --algo=intcov --synthetic=independent --n=1000 --dim=2
//       --k=10 --groups=3
//   fairhms_cli --algo=bigreedy --synthetic=anticorrelated --n=20000
//       --dim=6 --k=20 --groups=4
//   fairhms_cli --algo=fair_greedy --synthetic=adult --group_by=gender
//       --k=12 --alpha=0.2
//   fairhms_cli --algo=g_dmm --csv=data.csv --numeric=price,rating
//       --categorical=region --group_by=region --k=8
//   fairhms_cli --synthetic=adult --group_by=gender --queries=sweep.jsonl

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/service.h"
#include "cli_util.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/snapshot.h"

namespace fairhms {
namespace {

constexpr char kUsage[] = R"(fairhms_cli: command-line client of the FairHMS wire protocol.

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
                           (the choice and prediction are echoed in the
                           response's "plan" object)
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
  These flags become one request line ({"algorithm": NAME, "k": K, ...,
  "params": {..}}), served like a one-line --queries file: stdout gets
  its one response line, in the envelope fairhms_serve answers with
  (docs/protocol.md):
    {"id": 1, "ok": true, "protocol_version": 1, "seq": 1,
     "dataset": "default", "catalog_version": 1, "algorithm": "intcov",
     "k": 10, "seed": 42, "threads": 0, "solution_size": 10,
     "rows": [..], "happiness_ratio": .., "algo_mhr_estimate": ..,
     "violations": 0, "group_counts": [..], "solve_ms": ..,
     "total_ms": ..}
  A refused request answers {"id": 1, "ok": false, "protocol_version": 1,
  "seq": 1, "dataset": "default", "error": {"code": .., "message": ..}}.
  The cache report goes to stderr. Exit status: 0, or 3 when a response
  carries "ok": false, or 1 when a flag or the dataset is bad.

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
                           flags; bounds defaults to proportional. One
                           response line is streamed to stdout per request
                           line, in the envelope shown under Output
                           ("catalog_version" is the catalog's mutation
                           counter, so each response pins which catalog
                           state served it; a failed line does not stop
                           the batch). --algo/--k/--bounds and
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
                           global resident total crosses it, cache entries
                           are evicted one at a time, the coldest
                           session's least recently used first (the
                           serving session last), so an undersized budget
                           degrades to recomputation — results are
                           bit-identical regardless.

Snapshots (versioned binary serving state; see data/snapshot.h):
  --snapshot_save=PATH     after the request stream completes, write the
                           "default" dataset's full serving state (table,
                           tombstones, grouping, insert-routing provenance,
                           maintained skyline state) to PATH atomically.
  --snapshot_load=PATH     register "default" from a snapshot file instead
                           of --csv/--synthetic: the process warm-starts
                           without re-ingest or skyline recomputation.
                           Corrupt, truncated or future-versioned files are
                           rejected up front.
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

/// The request line the single-solve flags describe. Only flags given on
/// the command line are written (k defaults to 10), so the protocol's own
/// defaults apply otherwise; --seed and --threads arrive as the service
/// defaults. Nothing is validated here: ParseRequest judges the line like
/// any other.
std::string SolveLine(const cli::Flags& flags) {
  static const std::vector<ParamSpec> kNoParams;
  JsonWriter line;
  line.BeginObject();
  const std::string algo = flags.GetString("algo", "");
  if (flags.Has("algo")) line.Key("algorithm").String(algo);
  line.Key("k").Int(flags.GetInt("k", 10));
  if (flags.Has("bounds")) {
    line.Key("bounds").String(flags.GetString("bounds", ""));
  }
  for (const char* key : {"alpha", "latency_budget_ms", "quality_target"}) {
    if (flags.Has(key)) line.Key(key).Double(flags.GetDouble(key, 0.0));
  }
  for (const char* key : {"lower", "upper"}) {
    if (!flags.Has(key)) continue;
    line.Key(key).BeginArray();
    for (const int v : flags.GetIntList(key)) line.Int(v);
    line.EndArray();
  }
  // Each parameter of the chosen algorithm's schema is a typed flag.
  // "auto" has no schema, so parameter flags stay unread and draw the
  // unused-flag warning, like parameters of another algorithm.
  const AlgorithmInfo* info = AlgorithmRegistry::Instance().Find(algo);
  bool has_params = false;
  for (const ParamSpec& spec : info != nullptr ? info->params : kNoParams) {
    if (!flags.Has(spec.name)) continue;
    if (!has_params) line.Key("params").BeginObject();
    has_params = true;
    line.Key(spec.name);
    const std::string v = flags.GetString(spec.name, "");
    switch (spec.type) {
      case ParamType::kInt:
        line.Int(flags.GetInt64(spec.name, 0));
        break;
      case ParamType::kDouble:
        line.Double(flags.GetDouble(spec.name, 0.0));
        break;
      case ParamType::kBool:
        // A bare --flag means true; any other spelling than true/false or
        // 1/0 goes through as a string for the solver to refuse.
        if (v.empty() || v == "true" || v == "1") {
          line.Bool(true);
        } else if (v == "false" || v == "0") {
          line.Bool(false);
        } else {
          line.String(v);
        }
        break;
      case ParamType::kString:
        line.String(v);
        break;
    }
  }
  if (has_params) line.EndObject();
  line.EndObject();
  return line.Take();
}

/// Flags a run may leave unread without it being a typo: the driver flags
/// plus every parameter any registered algorithm declares.
std::set<std::string> DocumentedFlags() {
  std::set<std::string> names = {
      "csv", "numeric", "categorical", "synthetic", "n", "dim", "seed",
      "normalize", "groups", "group_by", "k", "bounds", "alpha", "lower",
      "upper", "algo", "latency_budget_ms", "quality_target", "threads",
      "simd", "list_algos", "queries", "global_cache_budget_mb",
      "snapshot_save", "snapshot_load", "snapshot_info", "help"};
  for (const AlgorithmInfo* info : AlgorithmRegistry::Instance().All()) {
    for (const ParamSpec& p : info->params) names.insert(p.name);
  }
  return names;
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

int Run(int argc, char** argv) {
  Stopwatch total;
  const cli::Flags flags(argc, argv);
  if (flags.Has("help") || argc <= 1) {
    std::fputs(kUsage, stdout);
    return argc <= 1 ? 1 : 0;
  }
  if (flags.Has("list_algos")) return ListAlgos();
  if (flags.Has("snapshot_info")) {
    return RunSnapshotInfo(flags.GetString("snapshot_info", ""));
  }

  auto service_opts = cli::ServiceOptionsFromFlags(flags);
  if (!service_opts.ok()) return Fail(service_opts.status());
  auto catalog = cli::BootstrapCatalog(flags, service_opts->default_seed);
  if (!catalog.ok()) return Fail(catalog.status());
  // Looked up here, before Finish, though the save runs after the stream,
  // over the final mutated state.
  const std::string snapshot_save = flags.GetString("snapshot_save", "");

  std::ifstream file;
  std::istringstream solve_line;
  std::istream* in = &solve_line;
  if (flags.Has("queries")) {
    const std::string path = flags.GetString("queries", "");
    if (path == "-") {
      in = &std::cin;
    } else {
      file.open(path);
      if (!file) return Fail(Status::IOError("cannot open --queries=" + path));
      in = &file;
    }
  } else {
    solve_line.str(SolveLine(flags));
  }
  // Every flag has been looked up by now; surface typos before serving (a
  // misspelled --groups must not silently serve a whole sweep against the
  // default grouping).
  if (Status st = flags.Finish("fairhms_cli", DocumentedFlags()); !st.ok()) {
    return Fail(st);
  }

  ProtocolService service(catalog->get(), *service_opts);
  uint64_t line_no = 0;
  std::string line;
  while (std::getline(*in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::string response = service.HandleLine(line, line_no);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

  if (!snapshot_save.empty()) {
    if (Status st = (*catalog)->Save("default", snapshot_save); !st.ok()) {
      return Fail(st);
    }
  }
  cli::PrintCacheReport(
      "fairhms_cli",
      StrFormat("served %llu lines (%llu updates, %llu failed) in %.1f ms",
                static_cast<unsigned long long>(service.served()),
                static_cast<unsigned long long>(service.updates()),
                static_cast<unsigned long long>(service.failed()),
                total.ElapsedMillis()),
      &service);
  return service.failed() == 0 ? 0 : 3;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
