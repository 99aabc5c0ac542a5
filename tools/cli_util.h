// The one command-line layer of the repository: flag parsing for every
// binary (fairhms_cli, fairhms_serve, bench_to_json and the bench/
// harnesses), plus the catalog bootstrap and end-of-run cache report the
// two serving front ends share.
//
// The JSON machinery that used to live here moved to common/json.h when the
// batch protocol was lifted into the library (api/protocol.h); responses
// are rendered there too, so tools keep no output format of their own.

#ifndef FAIRHMS_TOOLS_CLI_UTIL_H_
#define FAIRHMS_TOOLS_CLI_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/service.h"
#include "common/statusor.h"

namespace fairhms {
namespace cli {

/// Command-line flags: --key=value and boolean --key. Every lookup records
/// the key so Finish() can flag typos after parsing.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  /// An int-valued flag. A value outside int range is a parse error, never
  /// narrowed (--groups=4294967298 must not run with 2 groups).
  int GetInt(const std::string& key, int def) const;
  int64_t GetInt64(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  /// Comma-separated list flag ("a,b,c"); empty when absent.
  std::vector<std::string> GetList(const std::string& key) const;
  /// Comma-separated int list; malformed or out-of-range entries are parse
  /// errors.
  std::vector<int> GetIntList(const std::string& key) const;

  /// First malformed or out-of-range value seen by a numeric getter (a
  /// present flag whose value failed to parse) or recorded by Error(), or
  /// OK. Callers must check this before trusting defaults: a typo like
  /// --k=1O must not silently run with k=10.
  Status ParseError() const;

  /// Records a value the caller refuses (out of its range, an unknown
  /// name) as a parse error; the first error recorded is the one reported.
  void Error(Status status) const;

  /// Call once every flag of the taken code path has been looked up:
  /// warns on stderr ("<prog>: warning: ...") about each flag never looked
  /// up — as merely unused when `documented` names it, as an unknown flag
  /// otherwise — and returns ParseError().
  Status Finish(const char* prog,
                const std::set<std::string>& documented = {}) const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> seen_;
  mutable Status parse_error_;
};

// ---------------------------------------------------------------------------
// Serving bootstrap shared by fairhms_cli and fairhms_serve: both tools
// configure the process and describe their initial "default" dataset with
// the same flags.

/// Validates --seed (>= 0, default 42) and --threads ([0, 4096]; 0, the
/// default, = all hardware threads), makes --threads the process default,
/// applies the SIMD controls (an unknown FAIRHMS_SIMD value is refused up
/// front, and --simd=auto|off overrides it), and returns the service
/// defaults the two flags imply.
StatusOr<ServiceOptions> ServiceOptionsFromFlags(const Flags& flags);

/// Builds the catalog both front ends serve from: the process-wide cache
/// budget from --global_cache_budget_mb (default 1024; 0 = unbounded), and
/// the "default" dataset, restored from --snapshot_load or ingested from
/// --csv=PATH (with --numeric and optional --categorical) or
/// --synthetic=NAME (with --n, --dim and `seed`), normalized by
/// --normalize (minmax default | max | none) and grouped by --group_by
/// (categorical product; it also routes inserted rows) or --groups
/// (attribute-sum rank; default 1). Exactly one source must be given.
StatusOr<std::unique_ptr<DatasetCatalog>> BootstrapCatalog(const Flags& flags,
                                                           uint64_t seed);

/// Prints the end-of-run report to stderr: "<prog>: <summary>; cache: ..."
/// with the cache totals over every session, then the rendered response
/// line of a `stats` request (id "exit_report"): per-session and per-class
/// cache counters, the arbiter's ledger and the per-op latencies.
void PrintCacheReport(const char* prog, const std::string& summary,
                      ProtocolService* service);

}  // namespace cli
}  // namespace fairhms

#endif  // FAIRHMS_TOOLS_CLI_UTIL_H_
