#include "cli_util.h"

#include <cstdio>
#include <limits>
#include <utility>

#include "common/random.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace fairhms {
namespace cli {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // A stray positional or single-dash token ("-k=20") must not slip
      // through the typo guard and run with defaults.
      Error(Status::InvalidArgument(StrFormat(
          "unrecognized argument '%s' (flags are --key=value)",
          arg.c_str())));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "";
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

void Flags::Error(Status status) const {
  if (parse_error_.ok()) parse_error_ = std::move(status);
}

bool Flags::Has(const std::string& key) const {
  seen_.insert(key);
  return kv_.count(key) > 0;
}

int Flags::GetInt(const std::string& key, int def) const {
  const int64_t v = GetInt64(key, def);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    Error(Status::InvalidArgument(StrFormat(
        "--%s: %lld is out of range", key.c_str(),
        static_cast<long long>(v))));
    return def;
  }
  return static_cast<int>(v);
}

int64_t Flags::GetInt64(const std::string& key, int64_t def) const {
  seen_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  int64_t v = 0;
  if (!ParseInt64(it->second, &v)) {
    Error(Status::InvalidArgument(
        StrFormat("--%s: '%s' is not an integer", key.c_str(),
                  it->second.c_str())));
    return def;
  }
  return v;
}

double Flags::GetDouble(const std::string& key, double def) const {
  seen_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  double v = 0.0;
  if (!ParseDouble(it->second, &v)) {
    Error(Status::InvalidArgument(
        StrFormat("--%s: '%s' is not a number", key.c_str(),
                  it->second.c_str())));
    return def;
  }
  return v;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  seen_.insert(key);
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

std::vector<std::string> Flags::GetList(const std::string& key) const {
  std::vector<std::string> out;
  const std::string joined = GetString(key, "");
  if (joined.empty()) return out;
  for (const auto& part : Split(joined, ',')) {
    out.push_back(std::string(Trim(part)));
  }
  return out;
}

std::vector<int> Flags::GetIntList(const std::string& key) const {
  std::vector<int> out;
  for (const auto& part : GetList(key)) {
    int64_t v = 0;
    if (!ParseInt64(part, &v) || v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      Error(Status::InvalidArgument(
          StrFormat("--%s: '%s' is not an int", key.c_str(), part.c_str())));
      continue;
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

Status Flags::ParseError() const { return parse_error_; }

Status Flags::Finish(const char* prog,
                     const std::set<std::string>& documented) const {
  for (const auto& [key, value] : kv_) {
    (void)value;
    if (seen_.count(key)) continue;
    if (documented.count(key)) {
      std::fprintf(stderr,
                   "%s: warning: --%s has no effect with the chosen "
                   "options; ignored\n",
                   prog, key.c_str());
    } else {
      std::fprintf(stderr, "%s: warning: unknown flag --%s ignored\n", prog,
                   key.c_str());
    }
  }
  return parse_error_;
}

StatusOr<ServiceOptions> ServiceOptionsFromFlags(const Flags& flags) {
  ServiceOptions opts;
  const int64_t seed = flags.GetInt64("seed", 42);
  if (seed < 0) return Status::InvalidArgument("--seed must be >= 0");
  opts.default_seed = static_cast<uint64_t>(seed);
  opts.default_threads = flags.GetInt("threads", 0);
  if (opts.default_threads < 0 || opts.default_threads > 4096) {
    return Status::InvalidArgument(
        "--threads must be in [0, 4096] (0 = all hardware threads)");
  }
  SetDefaultThreads(opts.default_threads);
  FAIRHMS_RETURN_IF_ERROR(simd::ValidateSimdEnv());
  if (flags.Has("simd")) {
    auto mode = simd::ParseSimdMode(flags.GetString("simd", "auto"));
    if (!mode.ok()) {
      return Status::InvalidArgument(
          StrFormat("--simd must be \"auto\" or \"off\", got \"%s\"",
                    flags.GetString("simd", "").c_str()));
    }
    simd::SetMode(*mode);
  }
  return opts;
}

namespace {

StatusOr<Dataset> LoadDataset(const Flags& flags, uint64_t seed) {
  const bool has_csv = flags.Has("csv");
  const bool has_syn = flags.Has("synthetic");
  if (has_csv == has_syn) {
    return Status::InvalidArgument(
        "pass exactly one of --csv=PATH or --synthetic=NAME (--help for "
        "usage)");
  }
  if (has_csv) {
    CsvReadOptions opts;
    opts.numeric_columns = flags.GetList("numeric");
    opts.categorical_columns = flags.GetList("categorical");
    if (opts.numeric_columns.empty()) {
      return Status::InvalidArgument("--csv requires --numeric=col1,col2,...");
    }
    return ReadCsv(flags.GetString("csv", ""), opts);
  }
  Rng rng(seed);
  return MakeSyntheticDataset(flags.GetString("synthetic", ""),
                              flags.GetInt64("n", 0), flags.GetInt64("dim", 4),
                              &rng);
}

StatusOr<Grouping> MakeGrouping(const Flags& flags, const Dataset& data) {
  const auto by = flags.GetList("group_by");
  if (!by.empty()) return GroupByCategoricalProduct(data, by);
  const int c_num = flags.GetInt("groups", 1);
  if (c_num < 1) return Status::InvalidArgument("--groups must be >= 1");
  if (c_num > static_cast<int64_t>(data.size())) {
    return Status::InvalidArgument("--groups exceeds dataset size");
  }
  if (c_num == 1) return SingleGroup(data.size());
  return GroupBySumRank(data, c_num);
}

}  // namespace

StatusOr<std::unique_ptr<DatasetCatalog>> BootstrapCatalog(const Flags& flags,
                                                           uint64_t seed) {
  // Process-wide bound on resident cache bytes across every catalog
  // session: an unbounded seed/k sweep would pin a fresh net + evaluator
  // per line forever. The arbiter evicts the coldest sessions' caches
  // when the global total crosses it (results are bit-identical either
  // way); 0 disables.
  const int64_t budget_mb = flags.GetInt64("global_cache_budget_mb", 1024);
  if (budget_mb < 0) {
    return Status::InvalidArgument("--global_cache_budget_mb must be >= 0");
  }
  auto catalog = std::make_unique<DatasetCatalog>(DatasetCatalog::Options{
      static_cast<uint64_t>(budget_mb) * 1024 * 1024});

  // Warm from a snapshot, or cold from --csv/--synthetic.
  if (flags.Has("snapshot_load")) {
    if (flags.Has("csv") || flags.Has("synthetic")) {
      return Status::InvalidArgument(
          "--snapshot_load replaces --csv/--synthetic; pass exactly one "
          "dataset source");
    }
    FAIRHMS_RETURN_IF_ERROR(
        catalog->Load("default", flags.GetString("snapshot_load", "")));
    return catalog;
  }
  FAIRHMS_ASSIGN_OR_RETURN(Dataset raw, LoadDataset(flags, seed));
  FAIRHMS_ASSIGN_OR_RETURN(
      Dataset data, NormalizeDatasetByName(
                        flags.GetString("normalize", "minmax"), std::move(raw)));
  FAIRHMS_ASSIGN_OR_RETURN(Grouping grouping, MakeGrouping(flags, data));
  FAIRHMS_RETURN_IF_ERROR(catalog->Register("default", std::move(data),
                                            std::move(grouping),
                                            flags.GetList("group_by")));
  return catalog;
}

void PrintCacheReport(const char* prog, const std::string& summary,
                      DatasetCatalog* catalog) {
  // Per-session bytes and the arbiter's charged total are printed side by
  // side so they can be checked against each other.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;
  std::string detail;
  for (const std::string& name : catalog->List()) {
    auto s = catalog->Session(name);
    if (!s.ok()) continue;
    const CacheStats stats = (*s)->cache_stats();
    hits += stats.TotalHits();
    misses += stats.TotalMisses();
    bytes += stats.TotalBytes();
    detail += StrFormat("%s: cache detail [%s]: %s\n", prog, name.c_str(),
                        stats.ToString().c_str());
  }
  std::fprintf(stderr,
               "%s: %s; cache: %llu hits, %llu misses, %.1f KiB resident, "
               "%llu budget evictions\n%s%s: %s\n",
               prog, summary.c_str(), static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses),
               static_cast<double>(bytes) / 1024.0,
               static_cast<unsigned long long>(
                   catalog->arbiter()->evictions()),
               detail.c_str(), prog, catalog->arbiter()->ToString().c_str());
}

}  // namespace cli
}  // namespace fairhms
