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
//     SkylineIndex maintains the skylines/pools/group tables per update
//     and republishes them into the session cache (nets survive,
//     evaluators rebuild lazily).
//
// Emits the machine-readable CSV tools/bench_to_json consumes; the
// `threads` column encodes the pass — 1 = rebuild, 2 = incremental (see
// the pass1/pass2 config keys) — so the incremental row's "speedup" is the
// rebuild/incremental factor, and the checksum gate doubles as the
// incremental-vs-recompute bit-identity guarantee (every selected row,
// reference mhr, violation count and the full skyline state after the
// final op are digested).
//
//   bench_dynamic_updates --n=10000 --dim=6 --groups=4 --updates=40 |
//     bench_to_json --out=BENCH_dynamic.json --min_speedup=update_query:2:5.0

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

/// Serial, order-fixed digest (same contract as the session bench).
std::string Digest(const std::vector<double>& values) {
  double sum = 0.0;
  double alt = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    sum += values[i];
    alt += values[i] * static_cast<double>((i % 64) + 1);
  }
  return StrFormat("%.17g|%.17g", sum, alt);
}

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
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const int groups = flags.GetInt("groups", 4);
  const double alpha = flags.GetDouble("alpha", 0.2);
  const int updates = flags.GetInt("updates", 40);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const int threads = flags.GetInt("solver_threads", 1);
  const size_t ref_net = static_cast<size_t>(flags.GetInt("ref_net", 20000));
  // Default mix: algorithms whose queries are artifact-bound (skylines,
  // pools, evaluator precomputes), i.e. the costs the dynamic subsystem
  // actually removes. Solve-bound engines (bigreedy's net-greedy rounds
  // dominate its queries) gain little here by construction; measure them
  // explicitly via --algos.
  const std::string algos_flag =
      flags.GetString("algos", "intcov,g_greedy");
  const std::string ks_flag = flags.GetString("ks", "6,10,14,18,22");
  if (!bench::CheckFlags(flags, "bench_dynamic_updates")) return 1;

  std::vector<std::string> algos;
  for (const std::string& a : Split(algos_flag, ',')) {
    algos.push_back(std::string(Trim(a)));
  }
  if (algos.empty()) {
    std::fprintf(stderr, "--algos must name at least one algorithm\n");
    return 1;
  }
  std::vector<int> ks;
  for (const std::string& t : Split(ks_flag, ',')) {
    int64_t v = 0;
    if (!ParseInt64(Trim(t), &v) || v < 1) {
      std::fprintf(stderr, "bad --ks entry '%s'\n", t.c_str());
      return 1;
    }
    ks.push_back(static_cast<int>(v));
  }

  const std::vector<Op> schedule =
      MakeSchedule(n, dim, groups, updates, algos, seed);

  std::fprintf(stdout,
               "# bench=dynamic_updates pass1=rebuild pass2=incremental "
               "n=%zu dim=%d groups=%d ks=%s alpha=%g updates=%d "
               "queries=%zu algos=%s ref_net=%zu solver_threads=%d "
               "seed=%llu hardware_threads=%d\n",
               n, dim, groups, ks_flag.c_str(), alpha, updates,
               static_cast<size_t>(updates) * ks.size(), algos_flag.c_str(),
               ref_net, threads, static_cast<unsigned long long>(seed),
               HardwareThreads());
  std::fprintf(stdout, "op,threads,ms,checksum\n");

  struct PassResult {
    double update_ms = 0.0;
    double query_ms = 0.0;
    std::vector<double> digest;
  };

  // Fold one query's outcome (and the reference mhr) into the digest.
  auto fold = [](const SolverResult& result, double mhr,
                 std::vector<double>* digest) {
    digest->push_back(static_cast<double>(result.solution.rows.size()));
    for (int row : result.solution.rows) {
      digest->push_back(static_cast<double>(row));
    }
    digest->push_back(result.solution.mhr);
    digest->push_back(mhr);
    digest->push_back(static_cast<double>(result.violations));
  };

  // Fold the complete skyline pipeline state after the final op, so the
  // checksum also certifies the maintained artifacts — not just the query
  // results computed from them.
  auto fold_state = [&](const Dataset& data, const Grouping& grouping,
                        std::vector<double>* digest) {
    for (int r : ComputeSkyline(data)) digest->push_back(r);
    for (const auto& sky : ComputeGroupSkylines(data, grouping)) {
      digest->push_back(static_cast<double>(sky.size()));
      for (int r : sky) digest->push_back(r);
    }
    for (int c : grouping.LiveCounts(data)) digest->push_back(c);
  };

  auto make_request = [&](const Dataset& data, const Grouping& grouping,
                          const std::string& algo, int k) {
    SolverRequest request;
    request.bounds =
        GroupBounds::Proportional(k, grouping.LiveCounts(data), alpha);
    request.algorithm = algo;
    request.seed = seed;
    request.threads = threads;
    return request;
  };

  // ---- Pass 1: rebuild-from-scratch. --------------------------------
  PassResult rebuild;
  {
    Rng rng(seed);
    Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, groups);
    for (const Op& op : schedule) {
      Stopwatch update_timer;
      if (op.insert) {
        auto first = data.AppendRows({op.coords}, {{}});
        if (!first.ok()) {
          std::fprintf(stderr, "rebuild insert failed: %s\n",
                       first.status().ToString().c_str());
          return 1;
        }
        grouping.AppendRow(op.group);
      } else {
        if (Status st = data.ErasePoints({op.erase_row}); !st.ok()) {
          std::fprintf(stderr, "rebuild delete failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      rebuild.update_ms += update_timer.ElapsedMillis();

      for (int k : ks) {
        Stopwatch query_timer;
        SolverRequest request = make_request(data, grouping, op.algo, k);
        request.data = &data;
        request.grouping = &grouping;
        auto result = Solver::Solve(request);
        if (!result.ok()) {
          std::fprintf(stderr, "rebuild query (%s, k=%d) failed: %s\n",
                       op.algo.c_str(), k, result.status().ToString().c_str());
          return 1;
        }
        // Uncached reference evaluation: recompute the skyline (reusing
        // the facade's when it produced one) and rebuild the net.
        std::vector<int> skyline = result->skyline.empty()
                                       ? ComputeSkyline(data)
                                       : std::move(result->skyline);
        EvalOptions eval_opts;
        eval_opts.method = MhrMethod::kNet;
        eval_opts.net_size = ref_net;
        eval_opts.threads = threads;
        const double mhr =
            EvaluateMhr(data, skyline, result->solution.rows, eval_opts);
        rebuild.query_ms += query_timer.ElapsedMillis();
        fold(*result, mhr, &rebuild.digest);
      }
    }
    fold_state(data, grouping, &rebuild.digest);
  }

  // ---- Pass 2: incremental dynamic session. -------------------------
  PassResult incremental;
  {
    Rng rng(seed);
    Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, groups);
    auto session = SolverSession::CreateDynamic(&data, &grouping);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    for (const Op& op : schedule) {
      Stopwatch update_timer;
      if (op.insert) {
        auto row = session->Insert(op.coords, {}, op.group);
        if (!row.ok()) {
          std::fprintf(stderr, "incremental insert failed: %s\n",
                       row.status().ToString().c_str());
          return 1;
        }
      } else {
        if (Status st = session->Erase({op.erase_row}); !st.ok()) {
          std::fprintf(stderr, "incremental delete failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      incremental.update_ms += update_timer.ElapsedMillis();

      for (int k : ks) {
        Stopwatch query_timer;
        const SolverRequest request = make_request(data, grouping, op.algo, k);
        auto result = session->Solve(request);
        if (!result.ok()) {
          std::fprintf(stderr, "incremental query (%s, k=%d) failed: %s\n",
                       op.algo.c_str(), k, result.status().ToString().c_str());
          return 1;
        }
        EvalOptions eval_opts;
        eval_opts.method = MhrMethod::kNet;
        eval_opts.net_size = ref_net;
        eval_opts.threads = threads;
        eval_opts.cache = session->cache();
        const double mhr = EvaluateMhr(
            data, *GetOrComputeSkyline(session->cache(), data),
            result->solution.rows, eval_opts);
        incremental.query_ms += query_timer.ElapsedMillis();
        fold(*result, mhr, &incremental.digest);
      }
    }
    fold_state(data, grouping, &incremental.digest);

    const CacheStats stats = session->cache_stats();
    std::fprintf(stderr,
                 "incremental: %d updates x %zu-query sweeps, update %.1f "
                 "ms, query %.1f ms (rebuild: %.1f / %.1f); cache: %llu "
                 "hits, %llu misses\n",
                 updates, ks.size(), incremental.update_ms,
                 incremental.query_ms,
                 rebuild.update_ms, rebuild.query_ms,
                 static_cast<unsigned long long>(stats.TotalHits()),
                 static_cast<unsigned long long>(stats.TotalMisses()));
  }

  auto emit = [](const char* op, int pass, double ms,
                 const std::vector<double>& digest) {
    std::fprintf(stdout, "%s,%d,%.3f,%s\n", op, pass, ms,
                 Digest(digest).c_str());
  };
  // The per-phase rows share the full digest: any divergence — rows, mhr,
  // violations or final skyline state — trips bench_to_json's checksum
  // gate on every op series at once.
  emit("update", 1, rebuild.update_ms, rebuild.digest);
  emit("update", 2, incremental.update_ms, incremental.digest);
  emit("query", 1, rebuild.query_ms, rebuild.digest);
  emit("query", 2, incremental.query_ms, incremental.digest);
  emit("update_query", 1, rebuild.update_ms + rebuild.query_ms,
       rebuild.digest);
  emit("update_query", 2, incremental.update_ms + incremental.query_ms,
       incremental.digest);
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
