#include "cli_util.h"

#include <cmath>
#include <utility>

#include "common/json.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/generators.h"

namespace fairhms {
namespace cli {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // A stray positional or single-dash token ("-k=20") must not slip
      // through the typo guard and run with defaults.
      if (parse_error_.ok()) {
        parse_error_ = Status::InvalidArgument(StrFormat(
            "unrecognized argument '%s' (flags are --key=value)",
            arg.c_str()));
      }
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

bool Flags::Has(const std::string& key) const {
  seen_.insert(key);
  return kv_.count(key) > 0;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  seen_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  int64_t v = 0;
  if (!ParseInt64(it->second, &v)) {
    if (parse_error_.ok()) {
      parse_error_ = Status::InvalidArgument(
          StrFormat("--%s: '%s' is not an integer", key.c_str(),
                    it->second.c_str()));
    }
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
    if (parse_error_.ok()) {
      parse_error_ = Status::InvalidArgument(
          StrFormat("--%s: '%s' is not a number", key.c_str(),
                    it->second.c_str()));
    }
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

StatusOr<std::vector<int>> Flags::GetIntList(const std::string& key) const {
  std::vector<int> out;
  for (const auto& part : GetList(key)) {
    int64_t v = 0;
    if (!ParseInt64(part, &v)) {
      return Status::InvalidArgument(
          StrFormat("--%s: '%s' is not an integer", key.c_str(),
                    part.c_str()));
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

Status Flags::ParseError() const { return parse_error_; }

std::vector<std::string> Flags::Unknown() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : kv_) {
    (void)value;
    if (!seen_.count(key)) out.push_back(key);
  }
  return out;
}

void Report::AddString(const std::string& key, const std::string& value) {
  entries_.push_back({key, value, Kind::kString});
}

void Report::AddInt(const std::string& key, int64_t value) {
  entries_.push_back({key, StrFormat("%lld", static_cast<long long>(value)),
                      Kind::kNumber});
}

void Report::AddDouble(const std::string& key, double value) {
  if (std::isfinite(value)) {
    entries_.push_back({key, StrFormat("%.6g", value), Kind::kNumber});
  } else {
    entries_.push_back({key, "null", Kind::kNumber});
  }
}

std::string Report::ToPlain() const {
  size_t width = 0;
  for (const auto& e : entries_) width = std::max(width, e.key.size());
  std::string out;
  for (const auto& e : entries_) {
    out += StrFormat("%-*s %s\n", static_cast<int>(width + 1),
                     (e.key + ":").c_str(), e.value.c_str());
  }
  return out;
}

std::string Report::ToCsv() const {
  std::vector<std::string> header;
  std::vector<std::string> row;
  for (const auto& e : entries_) {
    header.push_back(CsvEscape(e.key));
    row.push_back(CsvEscape(e.value));
  }
  return Join(header, ",") + "\n" + Join(row, ",") + "\n";
}

std::string Report::ToJson() const {
  std::vector<std::string> fields;
  for (const auto& e : entries_) {
    const std::string value = e.kind == Kind::kNumber
                                  ? e.value
                                  : "\"" + fairhms::JsonEscape(e.value) + "\"";
    fields.push_back("\"" + fairhms::JsonEscape(e.key) + "\": " + value);
  }
  return "{" + Join(fields, ", ") + "}\n";
}

StatusOr<std::string> Report::Render(const std::string& format) const {
  if (format == "plain") return ToPlain();
  if (format == "csv") return ToCsv();
  if (format == "json") return ToJson();
  return Status::InvalidArgument(
      StrFormat("unknown --format '%s' (want plain, csv or json)",
                format.c_str()));
}

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

StatusOr<Dataset> LoadDatasetFromFlags(const Flags& flags, Rng* rng) {
  const bool has_csv = flags.Has("csv");
  const bool has_syn = flags.Has("synthetic");
  if (has_csv == has_syn) {
    return Status::InvalidArgument(
        "pass exactly one of --csv=PATH or --synthetic=NAME (--help for "
        "usage)");
  }
  if (has_csv) {
    CsvReadOptions opts;
    for (const auto& c : flags.GetList("numeric")) {
      opts.numeric_columns.push_back(c);
    }
    for (const auto& c : flags.GetList("categorical")) {
      opts.categorical_columns.push_back(c);
    }
    if (opts.numeric_columns.empty()) {
      return Status::InvalidArgument("--csv requires --numeric=col1,col2,...");
    }
    return ReadCsv(flags.GetString("csv", ""), opts);
  }
  return MakeSyntheticDataset(flags.GetString("synthetic", ""),
                              flags.GetInt("n", 0), flags.GetInt("dim", 4),
                              rng);
}

StatusOr<Dataset> NormalizeDatasetFromFlags(const Flags& flags, Dataset raw) {
  return NormalizeDatasetByName(flags.GetString("normalize", "minmax"),
                                std::move(raw));
}

StatusOr<Grouping> MakeGroupingFromFlags(const Flags& flags,
                                         const Dataset& data) {
  const auto by = flags.GetList("group_by");
  if (!by.empty()) return GroupByCategoricalProduct(data, by);
  const int c_num = static_cast<int>(flags.GetInt("groups", 1));
  if (c_num < 1) return Status::InvalidArgument("--groups must be >= 1");
  if (c_num > static_cast<int>(data.size())) {
    return Status::InvalidArgument("--groups exceeds dataset size");
  }
  if (c_num == 1) return SingleGroup(data.size());
  return GroupBySumRank(data, c_num);
}

StatusOr<uint64_t> ResolveCacheBudgetBytes(const Flags& flags) {
  const int64_t mb = flags.GetInt("global_cache_budget_mb", 1024);
  if (mb < 0) {
    return Status::InvalidArgument("--global_cache_budget_mb must be >= 0");
  }
  return static_cast<uint64_t>(mb) * 1024 * 1024;
}

Status ApplySimdFlags(const Flags& flags) {
  if (Status st = simd::ValidateSimdEnv(); !st.ok()) return st;
  if (flags.Has("simd")) {
    auto mode = simd::ParseSimdMode(flags.GetString("simd", "auto"));
    if (!mode.ok()) {
      return Status::InvalidArgument(
          StrFormat("--simd must be \"auto\" or \"off\", got \"%s\"",
                    flags.GetString("simd", "").c_str()));
    }
    simd::SetMode(*mode);
  }
  return Status::OK();
}

}  // namespace cli
}  // namespace fairhms
