// Argument parsing and result emission for the unified fairhms_cli driver.
//
// Kept separate from bench/bench_util.h on purpose: the bench harness is a
// paper-reproduction fixture, while the CLI is the long-lived entry point
// that future scaling/batching work extends.
//
// The JSON machinery that used to live here moved to common/json.h when the
// batch protocol was lifted into the library (api/protocol.h) — tools keep
// only flag parsing and report rendering.

#ifndef FAIRHMS_TOOLS_CLI_UTIL_H_
#define FAIRHMS_TOOLS_CLI_UTIL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "data/dataset.h"
#include "data/grouping.h"

namespace fairhms {
namespace cli {

/// Command-line flags: --key=value and boolean --key. Every lookup records
/// the key so Unknown() can flag typos after parsing.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  /// Comma-separated list flag ("a,b,c"); empty when absent.
  std::vector<std::string> GetList(const std::string& key) const;
  /// Comma-separated integer list; error status on malformed entries.
  StatusOr<std::vector<int>> GetIntList(const std::string& key) const;

  /// Keys given on the command line but never looked up (typo guard).
  std::vector<std::string> Unknown() const;

  /// First malformed numeric value seen by GetInt/GetDouble (a present flag
  /// whose value failed to parse), or OK. Callers must check this before
  /// trusting defaults: a typo like --k=1O must not silently run with k=10.
  Status ParseError() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> seen_;
  mutable Status parse_error_;
};

/// Ordered key/value report with typed adders, emitted as aligned plain
/// text, a two-line CSV (header + row), or a flat JSON object.
class Report {
 public:
  void AddString(const std::string& key, const std::string& value);
  void AddInt(const std::string& key, int64_t value);
  void AddDouble(const std::string& key, double value);

  std::string ToPlain() const;
  std::string ToCsv() const;
  std::string ToJson() const;

  /// Dispatches on "plain", "csv" or "json"; error on anything else.
  StatusOr<std::string> Render(const std::string& format) const;

 private:
  enum class Kind { kString, kNumber };
  struct Entry {
    std::string key;
    std::string value;  ///< Already formatted.
    Kind kind = Kind::kString;
  };
  std::vector<Entry> entries_;
};

/// Escapes a CSV cell (quotes when it contains delimiter/quote/newline).
std::string CsvEscape(const std::string& s);

// ---------------------------------------------------------------------------
// Dataset bootstrap shared by fairhms_cli and fairhms_serve: both tools
// describe their initial "default" dataset with the same flags.

/// Loads the flag-described dataset: --csv=PATH (with --numeric and
/// optional --categorical column lists) or --synthetic=NAME (with --n,
/// --dim and the caller's Rng). Exactly one source must be given.
StatusOr<Dataset> LoadDatasetFromFlags(const Flags& flags, Rng* rng);

/// Applies --normalize (minmax default | max | none) to a freshly loaded
/// dataset.
StatusOr<Dataset> NormalizeDatasetFromFlags(const Flags& flags, Dataset raw);

/// Builds the grouping from --group_by (categorical product) or --groups
/// (attribute-sum rank; default 1 = single group).
StatusOr<Grouping> MakeGroupingFromFlags(const Flags& flags,
                                         const Dataset& data);

/// Resolves the process-wide cache budget in bytes from
/// --global_cache_budget_mb (default 1024; 0 = unbounded; negative is an
/// error).
StatusOr<uint64_t> ResolveCacheBudgetBytes(const Flags& flags);

/// Applies the SIMD dispatch controls, shared by fairhms_cli and
/// fairhms_serve: refuses an unknown FAIRHMS_SIMD value up front (the
/// library's lazy init only warns), then lets --simd=auto|off override the
/// environment. An unknown --simd value is an error.
Status ApplySimdFlags(const Flags& flags);

}  // namespace cli
}  // namespace fairhms

#endif  // FAIRHMS_TOOLS_CLI_UTIL_H_
