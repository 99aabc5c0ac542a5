// bench_session_amortization: cold-vs-warm harness for the SolverSession
// multi-query engine. Builds one dataset, enumerates an (algorithm x k x
// alpha) query grid, and serves the whole batch twice — where "serving"
// one query is exactly what `fairhms_cli --queries` does per line: solve,
// then reference-evaluate the solution's happiness ratio against the
// global skyline on a high-resolution net:
//
//   * cold — one independent Solver::Solve + uncached evaluation per query
//     (every query rebuilds the skyline, fair pool, utility nets and
//     evaluator/denominator precomputes);
//   * warm — the same queries, in order, through a single SolverSession
//     with its cross-query ArtifactCache.
//
// Emits the machine-readable CSV tools/bench_to_json consumes. The
// `threads` column encodes the pass — 1 = cold, 2 = warm (see the
// pass1/pass2 keys of the config line) — so the JSON "speedup" of the
// warm row is the cold/warm amortization factor, and the checksum
// consistency gate doubles as the warm-vs-cold bit-identity guarantee
// (every selected row, mhr and violation count is digested).
//
//   bench_session_amortization --n=10000 --dim=6 --groups=4
//       --algos=bigreedy,bigreedy+,intcov --ks=6,10,14,18,22
//       --alphas=0.05,0.15,0.25,0.35 |
//     bench_to_json --out=BENCH_session.json --min_speedup=batch:2:2.0

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

/// Serial, order-fixed digest of a value sequence (bit-identical values
/// digest to the same string regardless of how they were computed).
std::string Digest(const std::vector<double>& values) {
  double sum = 0.0;
  double alt = 0.0;  // Position-sensitive companion: catches reorderings.
  for (size_t i = 0; i < values.size(); ++i) {
    sum += values[i];
    alt += values[i] * static_cast<double>((i % 64) + 1);
  }
  return StrFormat("%.17g|%.17g", sum, alt);
}

struct Query {
  std::string algo;
  int k = 0;
  double alpha = 0.0;
};

/// Folds one result (and its reference happiness ratio) into the digest
/// stream.
void FoldResult(const SolverResult& result, double reference_mhr,
                std::vector<double>* digest) {
  digest->push_back(static_cast<double>(result.solution.rows.size()));
  for (int row : result.solution.rows) {
    digest->push_back(static_cast<double>(row));
  }
  digest->push_back(result.solution.mhr);
  digest->push_back(reference_mhr);
  digest->push_back(static_cast<double>(result.violations));
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const int groups = flags.GetInt("groups", 4);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const int threads = flags.GetInt("solver_threads", 1);
  const int repeat = flags.GetInt("repeat_grid", 1);
  const size_t ref_net = static_cast<size_t>(flags.GetInt("ref_net", 20000));

  std::vector<std::string> algos;
  for (const std::string& a :
       Split(flags.GetString("algos", "bigreedy,bigreedy+,intcov"), ',')) {
    algos.push_back(std::string(Trim(a)));
  }
  std::vector<int> ks;
  for (const std::string& t :
       Split(flags.GetString("ks", "6,10,14,18,22"), ',')) {
    int64_t v = 0;
    if (!ParseInt64(Trim(t), &v) || v < 1) {
      std::fprintf(stderr, "bad --ks entry '%s'\n", t.c_str());
      return 1;
    }
    ks.push_back(static_cast<int>(v));
  }
  std::vector<double> alphas;
  for (const std::string& t :
       Split(flags.GetString("alphas", "0.05,0.15,0.25,0.35"), ',')) {
    double v = 0.0;
    if (!ParseDouble(Trim(t), &v) || v < 0.0) {
      std::fprintf(stderr, "bad --alphas entry '%s'\n", t.c_str());
      return 1;
    }
    alphas.push_back(v);
  }
  if (!bench::CheckFlags(flags, "bench_session_amortization")) return 1;

  Rng rng(seed);
  const Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
  const Grouping grouping = GroupBySumRank(data, groups);
  const std::vector<int> group_counts = grouping.Counts();

  std::vector<Query> queries;
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& algo : algos) {
      for (int k : ks) {
        for (double alpha : alphas) {
          queries.push_back({algo, k, alpha});
        }
      }
    }
  }

  auto make_request = [&](const Query& q) {
    SolverRequest request;
    request.data = &data;
    request.grouping = &grouping;
    request.bounds = GroupBounds::Proportional(q.k, group_counts, q.alpha);
    request.algorithm = q.algo;
    request.seed = seed;
    request.threads = threads;
    return request;
  };

  // The reference evaluation every served query pays (the `--queries`
  // driver's happiness_ratio): mhr against the global skyline on a
  // high-resolution net. With a cache the skyline and the evaluator
  // amortize; without one each query rebuilds both.
  auto reference_mhr = [&](const std::vector<int>& rows,
                           ArtifactCache* cache) {
    std::vector<int> local_skyline;
    const std::vector<int>& skyline =
        cache != nullptr ? cache->Skyline(data)
                         : (local_skyline = ComputeSkyline(data));
    EvalOptions eval_opts;
    eval_opts.method = MhrMethod::kNet;
    eval_opts.net_size = ref_net;
    eval_opts.threads = threads;
    eval_opts.cache = cache;
    return EvaluateMhr(data, skyline, rows, eval_opts);
  };

  std::fprintf(stdout,
               "# bench=session_amortization pass1=cold pass2=warm n=%zu "
               "dim=%d groups=%d queries=%zu algos=%s ks=%s alphas=%s "
               "ref_net=%zu solver_threads=%d seed=%llu "
               "hardware_threads=%d\n",
               n, dim, groups, queries.size(),
               flags.GetString("algos", "bigreedy,bigreedy+,intcov").c_str(),
               flags.GetString("ks", "6,10,14,18,22").c_str(),
               flags.GetString("alphas", "0.05,0.15,0.25,0.35").c_str(),
               ref_net, threads, static_cast<unsigned long long>(seed),
               HardwareThreads());
  std::fprintf(stdout, "op,threads,ms,checksum\n");

  // Per-algorithm timing buckets plus the whole-batch rollup.
  struct Bucket {
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    std::vector<double> cold_digest;
    std::vector<double> warm_digest;
  };
  std::vector<std::string> bucket_names = algos;
  bucket_names.push_back("batch");
  std::vector<Bucket> buckets(bucket_names.size());
  auto bucket_of = [&](const std::string& algo) -> Bucket& {
    for (size_t i = 0; i < algos.size(); ++i) {
      if (algos[i] == algo) return buckets[i];
    }
    return buckets.back();
  };
  Bucket& batch = buckets.back();

  // Cold pass: one throwaway session per query (Solver::Solve) plus an
  // uncached reference evaluation.
  for (const Query& q : queries) {
    const SolverRequest request = make_request(q);
    Stopwatch timer;
    auto result = Solver::Solve(request);
    if (!result.ok()) {
      std::fprintf(stderr, "cold %s k=%d alpha=%g failed: %s\n",
                   q.algo.c_str(), q.k, q.alpha,
                   result.status().ToString().c_str());
      return 1;
    }
    const double mhr = reference_mhr(result->solution.rows, nullptr);
    const double ms = timer.ElapsedMillis();
    Bucket& b = bucket_of(q.algo);
    b.cold_ms += ms;
    batch.cold_ms += ms;
    FoldResult(*result, mhr, &b.cold_digest);
    FoldResult(*result, mhr, &batch.cold_digest);
  }

  // Warm pass: the same queries through one pinned session.
  auto session = SolverSession::Create(&data, &grouping);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.status().ToString().c_str());
    return 1;
  }
  for (const Query& q : queries) {
    const SolverRequest request = make_request(q);
    Stopwatch timer;
    auto result = session->Solve(request);
    if (!result.ok()) {
      std::fprintf(stderr, "warm %s k=%d alpha=%g failed: %s\n",
                   q.algo.c_str(), q.k, q.alpha,
                   result.status().ToString().c_str());
      return 1;
    }
    const double mhr = reference_mhr(result->solution.rows, session->cache());
    const double ms = timer.ElapsedMillis();
    Bucket& b = bucket_of(q.algo);
    b.warm_ms += ms;
    batch.warm_ms += ms;
    FoldResult(*result, mhr, &b.warm_digest);
    FoldResult(*result, mhr, &batch.warm_digest);
  }

  for (size_t i = 0; i < buckets.size(); ++i) {
    std::fprintf(stdout, "%s,1,%.3f,%s\n", bucket_names[i].c_str(),
                 buckets[i].cold_ms, Digest(buckets[i].cold_digest).c_str());
    std::fprintf(stdout, "%s,2,%.3f,%s\n", bucket_names[i].c_str(),
                 buckets[i].warm_ms, Digest(buckets[i].warm_digest).c_str());
  }

  const CacheStats stats = session->cache_stats();
  std::fprintf(stderr,
               "batch: %zu queries, cold %.1f ms, warm %.1f ms (%.2fx); "
               "cache: %llu hits, %llu misses, %.1f KiB\n",
               queries.size(), batch.cold_ms, batch.warm_ms,
               batch.warm_ms > 0.0 ? batch.cold_ms / batch.warm_ms : 0.0,
               static_cast<unsigned long long>(stats.TotalHits()),
               static_cast<unsigned long long>(stats.TotalMisses()),
               static_cast<double>(stats.TotalBytes()) / 1024.0);
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
