// AlgoParams: the typed key-value parameter bag of the unified solver API,
// plus the per-algorithm parameter schema it is validated against.
//
// Algorithms publish a vector<ParamSpec> (name, type, default, range) in
// their registry entry; Solver::Solve validates a request's AlgoParams
// against that schema before the algorithm runs, so every engine rejects
// malformed knobs with the same InvalidArgument shape instead of each one
// improvising (or silently ignoring) its own checks.

#ifndef FAIRHMS_API_PARAMS_H_
#define FAIRHMS_API_PARAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace fairhms {

/// Wire type of one algorithm parameter.
enum class ParamType { kInt, kDouble, kBool, kString };

/// Canonical spelling ("int", "double", "bool", "string").
const char* ParamTypeToString(ParamType type);

/// Schema entry for one algorithm parameter. Ranges apply to numeric types
/// (kInt values are range-checked after conversion to double; the bounds
/// are inclusive unless the matching *_exclusive flag is set). String
/// parameters may restrict values to `choices`.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kDouble;
  std::string description;
  /// Display default, e.g. "0.02" or "auto" (the algorithm's Options struct
  /// remains the source of truth for the actual value).
  std::string default_value;
  double min_value = -1e308;
  double max_value = 1e308;
  bool min_exclusive = false;
  bool max_exclusive = false;
  std::vector<std::string> choices;  ///< Allowed values (kString only).
};

/// Typed key-value bag carried by SolverRequest. Only explicitly-set keys
/// exist; absent keys mean "use the algorithm's built-in default".
class AlgoParams {
 public:
  using Value = std::variant<int64_t, double, bool, std::string>;

  void SetInt(const std::string& name, int64_t v) { values_[name] = v; }
  void SetDouble(const std::string& name, double v) { values_[name] = v; }
  void SetBool(const std::string& name, bool v) { values_[name] = v; }
  void SetString(const std::string& name, std::string v) {
    values_[name] = std::move(v);
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  bool empty() const { return values_.empty(); }

  /// Typed getters with fallback. Numeric getters coerce int <-> double;
  /// a type-mismatched entry returns the fallback (Validate() rejects such
  /// entries before any algorithm reads them).
  int64_t IntOr(const std::string& name, int64_t def) const;
  double DoubleOr(const std::string& name, double def) const;
  bool BoolOr(const std::string& name, bool def) const;
  std::string StringOr(const std::string& name, const std::string& def) const;

  const std::map<std::string, Value>& values() const { return values_; }

 private:
  std::map<std::string, Value> values_;
};

/// Validates `params` against `schema` for error messages mentioning
/// `algorithm`: unknown keys (message lists the valid names), type
/// mismatches (int is accepted where double is expected), numeric range
/// violations, and out-of-choice strings all return InvalidArgument.
Status ValidateParams(const std::string& algorithm,
                      const std::vector<ParamSpec>& schema,
                      const AlgoParams& params);

}  // namespace fairhms

#endif  // FAIRHMS_API_PARAMS_H_
