// bench_dynamic_updates: update+query latency of the dynamic-session
// subsystem versus rebuild-from-scratch. One deterministic op schedule —
// alternating point inserts and deletes, each followed by a k-sweep of
// solve + reference-evaluation queries (--ks, algorithm rotating per
// update: the paper's sweep workload over churning data) — is served
// twice:
//
//   * rebuild — every mutation goes straight to the Dataset/Grouping and
//     every query pays a cold Solver::Solve plus an uncached reference
//     evaluation (skylines, fair pools, nets and evaluator precomputes
//     rebuilt from scratch per query: the pre-dynamic serving story);
//   * incremental — the same ops through one dynamic SolverSession, whose
//     SkylineIndex maintains the skylines/pools/group counts per update
//     and serves the session cache's misses on them (nets survive,
//     evaluators rebuild lazily).
//
// Ops `update`, `query` and `update_query` (their sum) in passes `rebuild`
// and `incremental`. Both passes share one checksum over every selected
// row, reference mhr, violation count and the full skyline state after the
// final op, so the CSV doubles as the incremental-vs-recompute
// bit-identity check.
//
//   bench_dynamic_updates --n=10000 --dim=6 --groups=4 --updates=40 |
//     bench_to_json --out=BENCH_dynamic.json
//       --gate='update_query:incremental/rebuild>=5'

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

struct Op {
  bool insert = false;
  std::vector<double> coords;  ///< Insert only.
  int group = 0;               ///< Insert only.
  int erase_row = -1;          ///< Delete only.
  std::string algo;            ///< The query following the update.
};

/// Pre-computed deterministic schedule, identical for both passes:
/// alternating inserts (random point, random group) and deletes (random
/// live row, tracked by simulating the mutations).
std::vector<Op> MakeSchedule(size_t n0, int dim, int groups, int updates,
                             const std::vector<std::string>& algos,
                             uint64_t seed) {
  Rng rng(seed ^ 0xD15EA5E);
  std::vector<int> live(n0);
  for (size_t i = 0; i < n0; ++i) live[i] = static_cast<int>(i);
  size_t next_row = n0;
  std::vector<Op> ops;
  for (int s = 0; s < updates; ++s) {
    Op op;
    op.algo = algos[static_cast<size_t>(s) % algos.size()];
    if (s % 2 == 0) {
      op.insert = true;
      op.coords.resize(static_cast<size_t>(dim));
      for (int j = 0; j < dim; ++j) {
        op.coords[static_cast<size_t>(j)] = rng.Uniform();
      }
      op.group = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(groups)));
      live.push_back(static_cast<int>(next_row++));
    } else {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      op.erase_row = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  bench::Harness harness(flags, "dynamic_updates");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const int groups = flags.GetInt("groups", 4);
  const double alpha = flags.GetDouble("alpha", 0.2);
  const int updates = flags.GetInt("updates", 40);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const size_t ref_net = static_cast<size_t>(flags.GetInt("ref_net", 20000));
  // Default mix: algorithms whose queries are artifact-bound (skylines,
  // pools, evaluator precomputes), i.e. the costs the dynamic subsystem
  // actually removes. Solve-bound engines (bigreedy's net-greedy rounds
  // dominate its queries) gain little here by construction; measure them
  // explicitly via --algos.
  const std::vector<std::string> algos =
      harness.Strings("algos", "intcov,g_greedy");
  const std::vector<int> ks = harness.Ints("ks", "6,10,14,18,22");
  if (!harness.Start(StrFormat(
          "n=%zu dim=%d groups=%d alpha=%g updates=%d queries=%zu "
          "ref_net=%zu seed=%llu",
          n, dim, groups, alpha, updates,
          static_cast<size_t>(updates) * ks.size(), ref_net,
          static_cast<unsigned long long>(seed)))) {
    return 1;
  }

  const std::vector<Op> schedule =
      MakeSchedule(n, dim, groups, updates, algos, seed);

  // One pass over the schedule on fresh data: through a dynamic session
  // when `dynamic`, otherwise straight to the Dataset/Grouping with a cold
  // Solver::Solve and an uncached evaluation per query.
  auto serve = [&](bool dynamic, bench::Rep& rep) -> StatusOr<std::string> {
    Rng rng(seed);
    Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, groups);
    std::optional<SolverSession> session;
    if (dynamic) {
      auto created = SolverSession::CreateDynamic(&data, &grouping);
      if (!created.ok()) return created.status();
      session.emplace(std::move(*created));
    }
    bench::Digest digest;
    for (const Op& op : schedule) {
      Stopwatch update_timer;
      Status st;
      if (op.insert && session) {
        st = session->Insert(op.coords, {}, op.group).status();
      } else if (op.insert) {
        st = data.AppendRows({op.coords}, {{}}).status();
        if (st.ok()) grouping.AppendRow(op.group);
      } else {
        st = session ? session->Erase({op.erase_row})
                     : data.ErasePoints({op.erase_row});
      }
      if (!st.ok()) return st;
      const double update_ms = update_timer.ElapsedMillis();
      rep.Add("update", update_ms);
      rep.Add("update_query", update_ms);

      for (int k : ks) {
        Stopwatch query_timer;
        SolverRequest request;
        request.data = &data;
        request.grouping = &grouping;
        request.bounds =
            GroupBounds::Proportional(k, grouping.LiveCounts(data), alpha);
        request.algorithm = op.algo;
        request.seed = seed;
        request.threads = 1;
        auto result =
            session ? session->Solve(request) : Solver::Solve(request);
        if (!result.ok()) return result.status();
        const std::shared_ptr<const std::vector<int>> skyline =
            GetOrComputeSkyline(session ? session->cache() : nullptr, data);
        EvalOptions eval_opts;
        eval_opts.method = MhrMethod::kNet;
        eval_opts.net_size = ref_net;
        eval_opts.threads = 1;
        eval_opts.cache = session ? session->cache() : nullptr;
        const double mhr =
            EvaluateMhr(data, *skyline, result->solution.rows, eval_opts);
        const double query_ms = query_timer.ElapsedMillis();
        rep.Add("query", query_ms);
        rep.Add("update_query", query_ms);

        digest.AddResult(*result);
        digest.Add(mhr);
      }
    }
    // The complete skyline pipeline state after the final op, so the
    // checksum also certifies the maintained artifacts, not just the query
    // results computed from them.
    for (int r : ComputeSkyline(data)) digest.Add(r);
    for (const auto& sky : ComputeGroupSkylines(data, grouping)) {
      digest.Add(static_cast<double>(sky.size()));
      for (int r : sky) digest.Add(r);
    }
    for (int c : grouping.LiveCounts(data)) digest.Add(c);
    return digest.str();
  };
  const bool ok =
      harness.Pass("rebuild", 1,
                   [&](bench::Rep& rep) { return serve(false, rep); }) &&
      harness.Pass("incremental", 1,
                   [&](bench::Rep& rep) { return serve(true, rep); });
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
