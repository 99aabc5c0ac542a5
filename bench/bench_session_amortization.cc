// bench_session_amortization: what a SolverSession saves over independent
// solves, on one independent dataset with sum-rank groups. Three ops, two
// named passes each; every pass of an op must produce the same checksum, so
// the CSV doubles as a bit-identity check of every cache and warm start:
//
//   * batch — an (algorithm x k x alpha) query grid served the way
//     `fairhms_cli --queries` serves a line: solve, then reference-evaluate
//     the happiness ratio against the global skyline on a high-resolution
//     net. Pass `solver`: one Solver::Solve plus an uncached evaluation per
//     query (every query rebuilds the skyline, fair pool, nets and
//     evaluators). Pass `session`: the same queries, in order, through one
//     SolverSession and its ArtifactCache. Each algorithm's share is an op
//     of its own (`bigreedy`, `intcov`, ...), with the same checksum.
//   * k_sweep — a BiGreedy k sweep (k_min..k_max and back, one k per step)
//     through one session per pass. Pass `cold_tau` disables warm starts,
//     so every solve runs the cold capped-value binary search; pass
//     `warm_tau` walks the tau grid from the previous certified index.
//     Both hold equally warm artifact caches, so the ratio isolates the
//     warm-start walk.
//   * planned — the same sweep naming "bigreedy" (pass `direct`) and as
//     `algorithm: "auto"` (pass `auto`, on a session whose cost model an
//     untimed direct sweep trained): a planned solve is bit-identical to
//     naming the algorithm it resolves to.
//
//   bench_session_amortization --n=10000 --dim=6 --groups=4 |
//     bench_to_json --out=BENCH_session.json
//       --gate='batch:session/solver>=2,k_sweep:warm_tau/cold_tau>=2'

#include <cstdio>
#include <memory>
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

namespace fairhms {
namespace {

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  bench::Harness harness(flags, "session_amortization");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const int groups = flags.GetInt("groups", 4);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const size_t ref_net = static_cast<size_t>(flags.GetInt("ref_net", 20000));
  const int k_min = flags.GetInt("k_min", 8);
  const int k_max = flags.GetInt("k_max", 24);
  const int sweeps = flags.GetInt("sweeps", 2);
  const std::vector<std::string> algos =
      harness.Strings("algos", "bigreedy,bigreedy+,intcov");
  const std::vector<int> ks = harness.Ints("ks", "6,10,14,18,22");
  const std::vector<double> alphas =
      harness.Doubles("alphas", "0.05,0.15,0.25,0.35");
  if (k_min < 1 || k_max < k_min) {
    std::fprintf(stderr, "bad k range [%d, %d]\n", k_min, k_max);
    return 1;
  }
  if (!harness.Start(StrFormat(
          "n=%zu dim=%d groups=%d queries=%zu ref_net=%zu k_min=%d k_max=%d "
          "sweeps=%d seed=%llu",
          n, dim, groups, algos.size() * ks.size() * alphas.size(), ref_net,
          k_min, k_max, sweeps, static_cast<unsigned long long>(seed)))) {
    return 1;
  }

  Rng rng(seed);
  const Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  const Grouping grouping = GroupBySumRank(data, groups);
  const std::vector<int> group_counts = grouping.Counts();
  auto request = [&](const std::string& algo, int k, double alpha) {
    SolverRequest r;
    r.data = &data;
    r.grouping = &grouping;
    r.bounds = GroupBounds::Proportional(k, group_counts, alpha);
    r.algorithm = algo;
    r.seed = seed;
    r.threads = 1;
    return r;
  };

  // ---- batch: the query grid, solver vs session. ----------------------
  // The reference evaluation every served query pays: with a cache the
  // skyline and the evaluator amortize; without one each query rebuilds
  // both.
  auto reference_mhr = [&](const std::vector<int>& rows,
                           ArtifactCache* cache) {
    EvalOptions eval_opts;
    eval_opts.method = MhrMethod::kNet;
    eval_opts.net_size = ref_net;
    eval_opts.threads = 1;
    eval_opts.cache = cache;
    return EvaluateMhr(data, *GetOrComputeSkyline(cache, data), rows,
                       eval_opts);
  };
  // Serves the grid through `session`, or through Solver::Solve when null.
  auto serve_batch = [&](SolverSession* session,
                         bench::Rep& rep) -> StatusOr<std::string> {
    bench::Digest digest;
    for (const std::string& algo : algos) {
      for (int k : ks) {
        for (double alpha : alphas) {
          Stopwatch timer;
          const SolverRequest req = request(algo, k, alpha);
          StatusOr<SolverResult> result =
              session ? session->Solve(req) : Solver::Solve(req);
          if (!result.ok()) return result.status();
          const double mhr = reference_mhr(
              result->solution.rows, session ? session->cache() : nullptr);
          const double ms = timer.ElapsedMillis();
          rep.Add("batch", ms);
          rep.Add(algo, ms);
          digest.AddResult(*result);
          digest.Add(mhr);
        }
      }
    }
    return digest.str();
  };
  auto solver_pass = [&](bench::Rep& rep) { return serve_batch(nullptr, rep); };
  auto session_pass = [&](bench::Rep& rep) -> StatusOr<std::string> {
    auto session = SolverSession::Create(&data, &grouping);
    if (!session.ok()) return session.status();
    return serve_batch(&*session, rep);
  };
  if (!harness.Pass("solver", 1, solver_pass) ||
      !harness.Pass("session", 1, session_pass)) {
    return 1;
  }

  // ---- k_sweep and planned: BiGreedy up-and-down k sweeps. ------------
  // Every consecutive pair differs by exactly one k, the warm memo's
  // eligibility window.
  std::vector<int> sweep;
  for (int s = 0; s < sweeps; ++s) {
    for (int k = k_min; k <= k_max; ++k) sweep.push_back(k);
    for (int k = k_max - 1; k >= k_min; --k) sweep.push_back(k);
  }
  // Serves the sweep as `algo` through `session`, timed under `op`. Every
  // solve must resolve onto bigreedy.
  auto serve_sweep = [&](SolverSession* session, const std::string& algo,
                         bool allow_warm, const char* op,
                         bench::Rep& rep) -> StatusOr<std::string> {
    bench::Digest digest;
    for (int k : sweep) {
      SolverRequest req = request(algo, k, /*alpha=*/0.2);
      req.allow_warm_start = allow_warm;
      Stopwatch timer;
      auto result = session->Solve(req);
      if (!result.ok()) return result.status();
      rep.Add(op, timer.ElapsedMillis());
      if (result->algorithm != "bigreedy") {
        return Status::Internal(StrFormat("k=%d resolved to '%s'", k,
                                          result->algorithm.c_str()));
      }
      digest.AddResult(*result);
    }
    return digest.str();
  };
  // One fresh session per repetition. An "auto" pass plans from the cost
  // model an untimed direct sweep on the same session trained first.
  auto sweep_pass = [&](const char* op, const char* pass,
                        const std::string& algo, bool allow_warm) {
    return harness.Pass(pass, 1, [&](bench::Rep& rep) -> StatusOr<std::string> {
      auto session = SolverSession::Create(&data, &grouping);
      if (!session.ok()) return session.status();
      if (algo == "auto") {
        bench::Rep untimed;
        auto trained = serve_sweep(&*session, "bigreedy", true, op, untimed);
        if (!trained.ok()) return trained.status();
      }
      return serve_sweep(&*session, algo, allow_warm, op, rep);
    });
  };
  const bool ok = sweep_pass("k_sweep", "cold_tau", "bigreedy", false) &&
                  sweep_pass("k_sweep", "warm_tau", "bigreedy", true) &&
                  sweep_pass("planned", "direct", "bigreedy", true) &&
                  sweep_pass("planned", "auto", "auto", true);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
