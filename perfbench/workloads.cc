#include "workloads.h"

#include <algorithm>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace perfbench {

namespace {

/// A seed below 2^30 (JSON numbers are doubles on the wire) drawn from the
/// workload seed and a per-use tag.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + tag);
  return rng.UniformInt(uint64_t{1} << 30);
}

/// The tables are the same on every seed: the workload seed drives the
/// request stream (net seeds, query shapes and order, inserted points and
/// deleted rows), so runs on different seeds stay comparable.
constexpr uint64_t kDataSeed = 0;

}  // namespace

StatusOr<WorkloadSpec> MakeWorkload(const std::string& name, bool small) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "md_cold") {
    // One shared anticorrelated table; every query samples a fresh net.
    spec.tenants.push_back(
        {"md", "anticorrelated", small ? 2000 : 20000, 6, 3,
         DeriveSeed(kDataSeed, 1)});
    spec.clients = 2;
    spec.digest_lines = 3;
  } else if (name == "md_warm") {
    // One tenant per client, so each session's warm-start history is fixed.
    for (int c = 0; c < 2; ++c) {
      spec.tenants.push_back(
          {StrFormat("warm%d", c), "anticorrelated", small ? 2000 : 20000, 6,
           3, DeriveSeed(kDataSeed, 10 + static_cast<uint64_t>(c))});
    }
    spec.clients = 2;
    spec.digest_lines = 6;
  } else if (name == "lite_churn") {
    for (int c = 0; c < 4; ++c) {
      spec.tenants.push_back(
          {StrFormat("lite%d", c), "anticorrelated", small ? 2000 : 50000, 2,
           3, DeriveSeed(kDataSeed, 20 + static_cast<uint64_t>(c))});
    }
    spec.clients = 4;
    spec.digest_lines = 200;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (want md_cold, md_warm or lite_churn)");
  }
  return spec;
}

std::string RegisterLine(const TenantSpec& t) {
  return StrFormat(
      "{\"op\": \"register\", \"id\": \"reg-%s\", \"name\": \"%s\", "
      "\"synthetic\": \"%s\", \"n\": %lld, \"dim\": %d, \"groups\": %d, "
      "\"seed\": %llu}",
      t.name.c_str(), t.name.c_str(), t.family.c_str(),
      static_cast<long long>(t.n), t.dim, t.groups,
      static_cast<unsigned long long>(t.seed));
}

ClientScript::ClientScript(const WorkloadSpec& spec, int client, uint64_t seed)
    : spec_(spec),
      client_(client),
      tenant_(&spec.tenants[static_cast<size_t>(client) %
                            spec.tenants.size()]),
      rng_(DeriveSeed(seed, 100 + static_cast<uint64_t>(client))),
      query_seed_(DeriveSeed(seed, 200 + static_cast<uint64_t>(client))) {
  if (spec.name == "md_warm") {
    // An analyst tuning the fairness tolerance around one k: alpha swept
    // upwards under each bound kind, every step asked at k and one adjacent
    // k with both algorithms, with the tenant's own fixed net seed. A run
    // covers only a few sweeps over two nets, so a net drawn per workload
    // seed would move whole runs (BiGreedy+'s doubling rounds and the
    // warm-start walk depend on it); the nets are fixed like the tables and
    // the workload seed picks where in the cycle each client starts.
    query_seed_ = DeriveSeed(kDataSeed, 200 + static_cast<uint64_t>(client));
    const int base_k = client == 0 ? 10 : 20;
    for (const char* bounds : {"proportional", "balanced"}) {
      for (const double alpha : {0.05, 0.15, 0.25, 0.35}) {
        for (const int k : {base_k, base_k + 1}) {
          for (const char* algorithm : {"bigreedy", "bigreedy+"}) {
            combos_.push_back({algorithm, k, bounds, alpha});
          }
        }
      }
    }
    combo_pos_ = rng_.UniformInt(combos_.size());
  } else if (spec.name == "lite_churn") {
    // Regenerate the tenant's table exactly as the register op does, to
    // place inserts on its skyline.
    Rng data_rng(tenant_->seed);
    auto raw = MakeSyntheticDataset(tenant_->family, tenant_->n, tenant_->dim,
                                    &data_rng);
    if (raw.ok()) {
      auto data = NormalizeDatasetByName("minmax", std::move(*raw));
      if (data.ok()) {
        for (const int row : ComputeSkyline(*data)) {
          band_.push_back({data->at(static_cast<size_t>(row), 0),
                           data->at(static_cast<size_t>(row), 1)});
        }
        std::sort(band_.begin(), band_.end());
      }
    }
  }
}

std::vector<std::string> ClientScript::WarmupLines() {
  std::vector<std::string> lines;
  if (spec_.name != "md_warm") return lines;
  // One query per (algorithm, k), so the timed sweep starts from cached
  // nets and evaluators.
  for (const Combo& c : combos_) {
    if (c.alpha == 0.05 && std::string(c.bounds) == "proportional") {
      lines.push_back(
          QueryLine(c.algorithm, c.k, c.bounds, c.alpha, query_seed_));
    }
  }
  return lines;
}

std::string ClientScript::QueryLine(const std::string& algorithm, int k,
                                    const char* bounds, double alpha,
                                    uint64_t seed) {
  return StrFormat(
      "{\"id\": \"c%d-%llu\", \"dataset\": \"%s\", \"algorithm\": \"%s\", "
      "\"k\": %d, \"bounds\": \"%s\", \"alpha\": %.2f, \"seed\": %llu, "
      "\"threads\": 1}",
      client_, static_cast<unsigned long long>(sent_++),
      tenant_->name.c_str(), algorithm.c_str(), k, bounds, alpha,
      static_cast<unsigned long long>(seed));
}

std::string ClientScript::Next() {
  last_is_write_ = false;
  if (spec_.name == "md_cold") return MdCold();
  if (spec_.name == "md_warm") return MdWarm();
  return LiteChurn();
}

std::string ClientScript::MdCold() {
  // Alternating algorithms over k in {10, 15, 20} in a fixed round robin
  // (the same mix on every run; the clients start half a cycle apart), with
  // a fresh net seed per query.
  static const int kKs[] = {10, 15, 20};
  const uint64_t step = sent_ + 3 * static_cast<uint64_t>(client_);
  const char* algorithm = step % 2 == 0 ? "bigreedy" : "bigreedy+";
  const int k = kKs[(step / 2) % 3];
  const uint64_t seed = rng_.UniformInt(uint64_t{1} << 30);
  return QueryLine(algorithm, k, "proportional", 0.1, seed);
}

std::string ClientScript::MdWarm() {
  const Combo& c = combos_[combo_pos_++ % combos_.size()];
  return QueryLine(c.algorithm, c.k, c.bounds, c.alpha, query_seed_);
}

std::string ClientScript::LiteChurn() {
  if (!rng_.Bernoulli(0.2)) {
    static const char* const kAlgorithms[] = {"intcov", "g_greedy",
                                              "bigreedy"};
    const char* algorithm = kAlgorithms[rng_.UniformInt(3)];
    const int k = 4 + static_cast<int>(rng_.UniformInt(9));
    return QueryLine(algorithm, k, "proportional", 0.1, query_seed_);
  }
  last_is_write_ = true;
  const std::string id = StrFormat(
      "c%d-%llu", client_, static_cast<unsigned long long>(sent_++));
  // Half the writes withdraw a row of the last answer (a shortlisted
  // candidate drops out); the rest insert a point in the skyline band.
  std::vector<int> candidates;
  for (const int row : last_rows_) {
    if (!deleted_.count(row)) candidates.push_back(row);
  }
  if (!candidates.empty() && rng_.Bernoulli(0.5)) {
    const int row = candidates[rng_.UniformInt(candidates.size())];
    deleted_.insert(row);
    return StrFormat(
        "{\"op\": \"delete\", \"id\": \"%s\", \"dataset\": \"%s\", "
        "\"rows\": [%d]}",
        id.c_str(), tenant_->name.c_str(), row);
  }
  // A convex combination of two adjacent skyline points of the original
  // table: incomparable with both, so it joins the skyline.
  double x = rng_.Uniform();
  double y = 1.0 - x;
  if (band_.size() >= 2) {
    const size_t i = rng_.UniformInt(band_.size() - 1);
    const double t = rng_.Uniform();
    x = band_[i][0] + t * (band_[i + 1][0] - band_[i][0]);
    y = band_[i][1] + t * (band_[i + 1][1] - band_[i][1]);
  }
  return StrFormat(
      "{\"op\": \"insert\", \"id\": \"%s\", \"dataset\": \"%s\", "
      "\"point\": [%.6f, %.6f], \"group\": %d}",
      id.c_str(), tenant_->name.c_str(), x, y,
      static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(
          tenant_->groups))));
}

void ClientScript::Observe(const std::string& reply) {
  if (spec_.name != "lite_churn" || last_is_write_) return;
  auto parsed = ParseJson(reply);
  if (!parsed.ok()) return;
  const JsonValue* rows = parsed->Find("rows");
  if (rows == nullptr || !rows->is_array()) return;
  last_rows_.clear();
  for (const JsonValue& row : rows->items()) {
    last_rows_.push_back(static_cast<int>(row.number_value()));
  }
}

}  // namespace perfbench
}  // namespace fairhms
