// AlgorithmRegistry: every built-in algorithm is registered with coherent
// capability metadata and a sorted parameter schema, lookups are stable,
// and the listing order is deterministic — the contract --list_algos, the
// CLI error messages and the facade all build on.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/params.h"
#include "api/registry.h"

namespace fairhms {
namespace {

/// The canonical catalogue. Keep in lockstep with the CI --list_algos grep
/// and the determinism suite; a registration regression fails this first.
const std::vector<std::string> kExpectedNames = {
    "bigreedy", "bigreedy+", "dmm",    "fair_greedy", "g_dmm",  "g_greedy",
    "g_hs",     "g_sphere",  "hs",     "intcov",      "rdp_greedy", "sphere"};

TEST(RegistryTest, AllBuiltinAlgorithmsRegistered) {
  EXPECT_EQ(AlgorithmRegistry::Instance().Names(), kExpectedNames);
}

TEST(RegistryTest, NamesSortedAndDeterministic) {
  const auto names = AlgorithmRegistry::Instance().Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names, AlgorithmRegistry::Instance().Names());
}

TEST(RegistryTest, AllMatchesNamesOrder) {
  const auto names = AlgorithmRegistry::Instance().Names();
  const auto all = AlgorithmRegistry::Instance().All();
  ASSERT_EQ(all.size(), names.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->name, names[i]);
    EXPECT_FALSE(all[i]->display_name.empty()) << names[i];
    EXPECT_FALSE(all[i]->summary.empty()) << names[i];
    EXPECT_TRUE(static_cast<bool>(all[i]->solve)) << names[i];
  }
}

TEST(RegistryTest, FindKnownAndUnknown) {
  const AlgorithmInfo* info = AlgorithmRegistry::Instance().Find("bigreedy+");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "bigreedy+");
  EXPECT_EQ(info->display_name, "BiGreedy+");
  EXPECT_EQ(AlgorithmRegistry::Instance().Find("no_such_algo"), nullptr);
  EXPECT_EQ(AlgorithmRegistry::Instance().Find(""), nullptr);
}

TEST(RegistryTest, CapabilityMetadata) {
  const auto& registry = AlgorithmRegistry::Instance();
  EXPECT_TRUE(registry.Find("intcov")->caps.exact_2d);
  EXPECT_TRUE(registry.Find("intcov")->caps.fairness_aware);
  EXPECT_FALSE(registry.Find("intcov")->caps.randomized);
  EXPECT_TRUE(registry.Find("bigreedy+")->caps.supports_lambda);
  EXPECT_FALSE(registry.Find("bigreedy")->caps.supports_lambda);
  EXPECT_TRUE(registry.Find("bigreedy")->caps.randomized);
  for (const char* fair :
       {"intcov", "bigreedy", "bigreedy+", "fair_greedy", "g_greedy", "g_dmm",
        "g_sphere", "g_hs"}) {
    EXPECT_TRUE(registry.Find(fair)->caps.fairness_aware) << fair;
  }
  for (const char* unaware : {"rdp_greedy", "dmm", "sphere", "hs"}) {
    EXPECT_FALSE(registry.Find(unaware)->caps.fairness_aware) << unaware;
    EXPECT_FALSE(registry.Find(unaware)->caps.exact_2d) << unaware;
  }
}

TEST(RegistryTest, CapabilitiesToStringFormat) {
  const auto& registry = AlgorithmRegistry::Instance();
  EXPECT_EQ(CapabilitiesToString(registry.Find("intcov")->caps),
            "fair,exact-2d");
  EXPECT_EQ(CapabilitiesToString(registry.Find("bigreedy+")->caps),
            "fair,randomized,lambda");
  EXPECT_EQ(CapabilitiesToString(registry.Find("rdp_greedy")->caps), "-");
}

TEST(RegistryTest, ParamSchemasSortedByName) {
  for (const AlgorithmInfo* info : AlgorithmRegistry::Instance().All()) {
    EXPECT_TRUE(std::is_sorted(
        info->params.begin(), info->params.end(),
        [](const ParamSpec& a, const ParamSpec& b) { return a.name < b.name; }))
        << info->name;
    for (const ParamSpec& p : info->params) {
      EXPECT_FALSE(p.name.empty()) << info->name;
      EXPECT_FALSE(p.description.empty())
          << info->name << " param " << p.name;
      EXPECT_FALSE(p.default_value.empty())
          << info->name << " param " << p.name;
    }
  }
}

TEST(RegistryTest, NamesForErrorListsEveryAlgorithm) {
  const std::string joined = AlgorithmRegistry::Instance().NamesForError();
  for (const auto& name : kExpectedNames) {
    EXPECT_NE(joined.find(name), std::string::npos) << name;
  }
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  AlgorithmInfo dup;
  dup.name = "bigreedy";
  dup.display_name = "Dup";
  dup.solve = [](const SolveContext&) -> StatusOr<Solution> {
    return Solution{};
  };
  const Status st = AlgorithmRegistry::Instance().Register(std::move(dup));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// --- parameter-schema validation (the uniform InvalidArgument contract) ---

std::vector<ParamSpec> TestSchema() {
  return {
      {"eps", ParamType::kDouble, "granularity", "0.02", 0.0, 1.0, true, true,
       {}},
      {"net_size", ParamType::kInt, "net size", "auto", 1, 1e308, false,
       false, {}},
      {"lazy", ParamType::kBool, "lazy gains", "true", -1e308, 1e308, false,
       false, {}},
      {"mode", ParamType::kString, "traversal", "binary", -1e308, 1e308,
       false, false, {"binary", "linear"}},
  };
}

TEST(ValidateParamsTest, AcceptsWellTypedValuesInRange) {
  AlgoParams params;
  params.SetDouble("eps", 0.5);
  params.SetInt("net_size", 100);
  params.SetBool("lazy", false);
  params.SetString("mode", "linear");
  EXPECT_TRUE(ValidateParams("algo", TestSchema(), params).ok());
}

TEST(ValidateParamsTest, IntAcceptedWhereDoubleExpected) {
  AlgoParams params;
  params.SetInt("eps", 1);  // 1 is out of (0, 1) though -> range error.
  const Status st = ValidateParams("algo", TestSchema(), params);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  AlgoParams ok_params;
  ok_params.SetInt("net_size", 5);
  EXPECT_TRUE(ValidateParams("algo", TestSchema(), ok_params).ok());
}

TEST(ValidateParamsTest, UnknownKeyListsValidNames) {
  AlgoParams params;
  params.SetDouble("epz", 0.5);
  const Status st = ValidateParams("algo", TestSchema(), params);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown parameter 'epz'"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("eps"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("net_size"), std::string::npos) << st.message();
}

TEST(ValidateParamsTest, RangeViolationsRejected) {
  for (const double bad_eps : {0.0, -0.5, 1.0, 2.0}) {
    AlgoParams params;
    params.SetDouble("eps", bad_eps);
    const Status st = ValidateParams("algo", TestSchema(), params);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad_eps;
    EXPECT_NE(st.message().find("out of range"), std::string::npos)
        << st.message();
  }
  AlgoParams zero_net;
  zero_net.SetInt("net_size", 0);
  EXPECT_EQ(ValidateParams("algo", TestSchema(), zero_net).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateParamsTest, TypeMismatchesRejected) {
  AlgoParams params;
  params.SetString("eps", "fast");
  EXPECT_EQ(ValidateParams("algo", TestSchema(), params).code(),
            StatusCode::kInvalidArgument);
  AlgoParams bool_as_int;
  bool_as_int.SetInt("lazy", 1);
  EXPECT_EQ(ValidateParams("algo", TestSchema(), bool_as_int).code(),
            StatusCode::kInvalidArgument);
  AlgoParams double_as_int;
  double_as_int.SetDouble("net_size", 10.5);
  EXPECT_EQ(ValidateParams("algo", TestSchema(), double_as_int).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateParamsTest, StringChoiceEnforced) {
  AlgoParams params;
  params.SetString("mode", "random");
  const Status st = ValidateParams("algo", TestSchema(), params);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("binary"), std::string::npos) << st.message();
}

TEST(ValidateParamsTest, NonFiniteDoubleRejected) {
  AlgoParams params;
  params.SetDouble("eps", std::numeric_limits<double>::infinity());
  EXPECT_EQ(ValidateParams("algo", TestSchema(), params).code(),
            StatusCode::kInvalidArgument);
}

TEST(AlgoParamsTest, TypedGettersAndKeys) {
  AlgoParams params;
  EXPECT_TRUE(params.empty());
  params.SetInt("b", 7);
  params.SetDouble("a", 0.25);
  params.SetBool("d", true);
  params.SetString("c", "x");
  EXPECT_EQ(params.IntOr("b", 0), 7);
  EXPECT_EQ(params.DoubleOr("a", 0.0), 0.25);
  EXPECT_TRUE(params.BoolOr("d", false));
  EXPECT_EQ(params.StringOr("c", ""), "x");
  // Numeric coercion both ways; absent keys fall back.
  EXPECT_EQ(params.DoubleOr("b", 0.0), 7.0);
  EXPECT_EQ(params.IntOr("a", -1), 0);
  EXPECT_EQ(params.IntOr("missing", 42), 42);
  // Keys iterate sorted.
  std::vector<std::string> keys;
  for (const auto& [key, value] : params.values()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d"}));
}

}  // namespace
}  // namespace fairhms
