#include "api/params.h"

#include <cmath>

#include "common/string_util.h"

namespace fairhms {
namespace {

/// Human-readable rendering of a Value for error messages.
std::string ValueToString(const AlgoParams::Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  if (const auto* d = std::get_if<double>(&v)) return StrFormat("%g", *d);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  return std::get<std::string>(v);
}

/// Renders the valid range of a numeric spec, e.g. "(0, 1]" or ">= 1".
std::string RangeToString(const ParamSpec& spec) {
  const bool has_min = spec.min_value > -1e308;
  const bool has_max = spec.max_value < 1e308;
  if (has_min && has_max) {
    return StrFormat("%s%g, %g%s", spec.min_exclusive ? "(" : "[",
                     spec.min_value, spec.max_value,
                     spec.max_exclusive ? ")" : "]");
  }
  if (has_min) {
    return StrFormat("%s %g", spec.min_exclusive ? ">" : ">=", spec.min_value);
  }
  if (has_max) {
    return StrFormat("%s %g", spec.max_exclusive ? "<" : "<=", spec.max_value);
  }
  return "unbounded";
}

Status CheckRange(const std::string& algorithm, const ParamSpec& spec,
                  double value) {
  const bool below = spec.min_exclusive ? value <= spec.min_value
                                        : value < spec.min_value;
  const bool above = spec.max_exclusive ? value >= spec.max_value
                                        : value > spec.max_value;
  if (below || above) {
    return Status::InvalidArgument(StrFormat(
        "%s: parameter '%s' = %g out of range (valid: %s)", algorithm.c_str(),
        spec.name.c_str(), value, RangeToString(spec).c_str()));
  }
  return Status::OK();
}

}  // namespace

const char* ParamTypeToString(ParamType type) {
  switch (type) {
    case ParamType::kInt: return "int";
    case ParamType::kDouble: return "double";
    case ParamType::kBool: return "bool";
    case ParamType::kString: return "string";
  }
  return "unknown";
}

int64_t AlgoParams::IntOr(const std::string& name, int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (const auto* i = std::get_if<int64_t>(&it->second)) return *i;
  if (const auto* d = std::get_if<double>(&it->second)) {
    return static_cast<int64_t>(*d);
  }
  return def;
}

double AlgoParams::DoubleOr(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (const auto* d = std::get_if<double>(&it->second)) return *d;
  if (const auto* i = std::get_if<int64_t>(&it->second)) {
    return static_cast<double>(*i);
  }
  return def;
}

bool AlgoParams::BoolOr(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (const auto* b = std::get_if<bool>(&it->second)) return *b;
  return def;
}

std::string AlgoParams::StringOr(const std::string& name,
                                 const std::string& def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (const auto* s = std::get_if<std::string>(&it->second)) return *s;
  return def;
}

Status ValidateParams(const std::string& algorithm,
                      const std::vector<ParamSpec>& schema,
                      const AlgoParams& params) {
  for (const auto& [key, value] : params.values()) {
    const ParamSpec* spec = nullptr;
    for (const auto& s : schema) {
      if (s.name == key) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      std::vector<std::string> names;
      for (const auto& s : schema) names.push_back(s.name);
      return Status::InvalidArgument(StrFormat(
          "%s: unknown parameter '%s' (valid: %s)", algorithm.c_str(),
          key.c_str(), names.empty() ? "none" : Join(names, ", ").c_str()));
    }
    switch (spec->type) {
      case ParamType::kInt: {
        if (!std::holds_alternative<int64_t>(value)) {
          return Status::InvalidArgument(StrFormat(
              "%s: parameter '%s' must be an int, got %s", algorithm.c_str(),
              key.c_str(), ValueToString(value).c_str()));
        }
        FAIRHMS_RETURN_IF_ERROR(CheckRange(
            algorithm, *spec,
            static_cast<double>(std::get<int64_t>(value))));
        break;
      }
      case ParamType::kDouble: {
        double v = 0.0;
        if (const auto* d = std::get_if<double>(&value)) {
          v = *d;
        } else if (const auto* i = std::get_if<int64_t>(&value)) {
          v = static_cast<double>(*i);
        } else {
          return Status::InvalidArgument(StrFormat(
              "%s: parameter '%s' must be a double, got %s", algorithm.c_str(),
              key.c_str(), ValueToString(value).c_str()));
        }
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(
              StrFormat("%s: parameter '%s' must be finite", algorithm.c_str(),
                        key.c_str()));
        }
        FAIRHMS_RETURN_IF_ERROR(CheckRange(algorithm, *spec, v));
        break;
      }
      case ParamType::kBool: {
        if (!std::holds_alternative<bool>(value)) {
          return Status::InvalidArgument(StrFormat(
              "%s: parameter '%s' must be a bool, got %s", algorithm.c_str(),
              key.c_str(), ValueToString(value).c_str()));
        }
        break;
      }
      case ParamType::kString: {
        if (!std::holds_alternative<std::string>(value)) {
          return Status::InvalidArgument(StrFormat(
              "%s: parameter '%s' must be a string, got %s", algorithm.c_str(),
              key.c_str(), ValueToString(value).c_str()));
        }
        if (!spec->choices.empty()) {
          const std::string& s = std::get<std::string>(value);
          bool found = false;
          for (const auto& c : spec->choices) {
            if (c == s) {
              found = true;
              break;
            }
          }
          if (!found) {
            return Status::InvalidArgument(StrFormat(
                "%s: parameter '%s' = '%s' not in {%s}", algorithm.c_str(),
                key.c_str(), s.c_str(), Join(spec->choices, ", ").c_str()));
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace fairhms
