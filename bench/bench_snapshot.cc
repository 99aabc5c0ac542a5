// bench_snapshot: process warm-start via binary snapshots versus cold
// ingest. One serving state — a generated dataset written to CSV (the
// on-disk source a fresh process would ingest) — is brought up twice:
//
//   * cold — ReadCsv + grouping + dynamic session + skyline-index build
//     from scratch (the pre-snapshot restart story), then a query sweep;
//   * restore — DatasetCatalog::Load of the snapshot file written from the
//     cold session (untimed save): table, tombstone state, grouping,
//     insert-routing provenance and the maintained skyline state all come
//     from the file without a single dominance test, then the same sweep
//     through the catalog.
//
// Ops `warm_start` (the bring-up) and `query` (the sweep) in passes `cold`
// and `restore`. Both passes share one checksum over every query result
// plus the full skyline-index state, so the CSV doubles as the
// restored-state bit-identity check.
//
//   bench_snapshot --n=10000 --dim=6 --groups=4 |
//     bench_to_json --out=BENCH_snapshot.json
//       --gate='warm_start:restore/cold>=10'

#include <cstdio>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/session.h"
#include "api/solver.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "data/snapshot.h"
#include "fairness/group_bounds.h"
#include "skyline/incremental.h"

namespace fairhms {
namespace {

/// Folds the complete maintained skyline-index state, so the checksum also
/// certifies what the snapshot carried — not just results computed from it.
void FoldIndexState(const SkylineIndex& index, bench::Digest* digest) {
  const SkylineIndexState state = index.SaveState();
  for (int r : state.global.skyline) digest->Add(r);
  for (const auto& [row, by] : state.global.dominated) {
    digest->Add(static_cast<double>(row));
    digest->Add(static_cast<double>(by));
  }
  for (const IncrementalSkylineState& g : state.per_group) {
    digest->Add(static_cast<double>(g.skyline.size()));
    for (int r : g.skyline) digest->Add(r);
    digest->Add(static_cast<double>(g.dominated.size()));
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  bench::Harness harness(flags, "snapshot");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  const int dim = flags.GetInt("dim", 6);
  const int groups = flags.GetInt("groups", 4);
  const double alpha = flags.GetDouble("alpha", 0.2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const std::string work_dir = flags.GetString("work_dir", ".");
  const std::vector<std::string> algos =
      harness.Strings("algos", "intcov,g_greedy");
  const std::vector<int> ks = harness.Ints("ks", "6,10,14");
  if (!harness.Start(StrFormat("n=%zu dim=%d groups=%d alpha=%g seed=%llu",
                               n, dim, groups, alpha,
                               static_cast<unsigned long long>(seed)))) {
    return 1;
  }
  const std::string csv_path = work_dir + "/bench_snapshot_data.csv";
  const std::string snap_path = work_dir + "/bench_snapshot_state.snap";

  // Setup (untimed): the on-disk CSV a fresh process would ingest.
  {
    Rng rng(seed);
    const Dataset generated = GenIndependent(n, dim, &rng).NormalizedMinMax();
    if (Status st = WriteCsv(generated, csv_path); !st.ok()) {
      std::fprintf(stderr, "write csv: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Serves the sweep through `solve`, timed as `query`, then folds the
  // session's skyline-index state into the digest.
  auto sweep = [&](const SolverSession& session, auto&& solve,
                   bench::Rep& rep) -> StatusOr<std::string> {
    bench::Digest digest;
    for (const std::string& algo : algos) {
      for (int k : ks) {
        SolverRequest request;
        request.bounds = GroupBounds::Proportional(
            k, session.grouping().LiveCounts(session.data()), alpha);
        request.algorithm = algo;
        request.seed = seed;
        request.threads = 1;
        Stopwatch timer;
        StatusOr<SolverResult> result = solve(request);
        if (!result.ok()) return result.status();
        rep.Add("query", timer.ElapsedMillis());
        digest.AddResult(*result);
      }
    }
    FoldIndexState(*session.index(), &digest);
    return digest.str();
  };

  // Cold: CSV ingest + grouping + skyline-index build, then the sweep and
  // an untimed save of the full serving state for the restore pass.
  auto cold = [&](bench::Rep& rep) -> StatusOr<std::string> {
    Stopwatch start_timer;
    CsvReadOptions opts;
    {
      // A real restart knows its schema.
      Rng rng(seed);
      opts.numeric_columns = GenIndependent(1, dim, &rng).attr_names();
    }
    StatusOr<Dataset> data = ReadCsv(csv_path, opts);
    if (!data.ok()) return data.status();
    Grouping grouping = GroupBySumRank(*data, groups);
    auto session = SolverSession::CreateDynamic(&*data, &grouping);
    if (!session.ok()) return session.status();
    if (Status st = session->EnsureIndex(); !st.ok()) return st;
    rep.Add("warm_start", start_timer.ElapsedMillis());

    auto checksum = sweep(
        *session, [&](const SolverRequest& r) { return session->Solve(r); },
        rep);
    if (!checksum.ok()) return checksum;
    auto snapshot = SnapshotSession(&*session);
    if (!snapshot.ok()) return snapshot.status();
    if (Status st = WriteSnapshotFile(*snapshot, snap_path); !st.ok()) {
      return st;
    }
    return checksum;
  };

  // Restore: DatasetCatalog::Load of that file, then the same sweep
  // through the catalog.
  auto restore = [&](bench::Rep& rep) -> StatusOr<std::string> {
    DatasetCatalog catalog;
    Stopwatch restore_timer;
    if (Status st = catalog.Load("bench", snap_path); !st.ok()) return st;
    rep.Add("warm_start", restore_timer.ElapsedMillis());
    auto session = catalog.Session("bench");
    if (!session.ok()) return session.status();
    return sweep(
        **session,
        [&](const SolverRequest& r) { return catalog.Solve("bench", r); },
        rep);
  };
  const bool ok =
      harness.Pass("cold", 1, cold) && harness.Pass("restore", 1, restore);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
