// Regenerates Fig. 10 (MHR) and Fig. 11 (time) jointly: BiGreedy+ over the
// (eps, lambda) grid — the capped-value search granularity and the adaptive
// sampling convergence threshold.

#include <cstdio>
#include <vector>

#include "algo/bigreedy.h"
#include "bench/bench_util.h"

namespace fairhms {
namespace {

using namespace bench;

void Panel(const DatasetCase& c, int k, const std::vector<double>& grid) {
  const GroupBounds bounds = PaperBounds(c, k);
  std::vector<std::string> series;
  char buf[32];
  for (double eps : grid) {
    std::snprintf(buf, sizeof(buf), "e=%g", eps);
    series.push_back(buf);
  }

  std::vector<std::vector<std::string>> mhr_rows, ms_rows;
  for (double lambda : grid) {
    std::vector<std::string> mhr_cells, ms_cells;
    for (double eps : grid) {
      BiGreedyPlusOptions opts;
      opts.base.eps = eps;
      opts.lambda = lambda;
      opts.base.pool = c.pool;
      opts.base.db_rows = c.skyline;
      auto sol = BiGreedyPlus(c.data, c.grouping, bounds, opts);
      if (sol.ok()) {
        std::snprintf(buf, sizeof(buf), "%.4f", ReferenceMhr(c, sol->rows));
        mhr_cells.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.1f", sol->elapsed_ms);
        ms_cells.push_back(buf);
      } else {
        mhr_cells.push_back("-");
        ms_cells.push_back("-");
      }
    }
    mhr_rows.push_back(mhr_cells);
    ms_rows.push_back(ms_cells);
  }

  PrintHeader("Fig. 10 MHR (rows: lambda): " + c.name, "lambda", series);
  for (size_t i = 0; i < grid.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%g", grid[i]);
    PrintRow(buf, mhr_rows[i]);
  }
  PrintHeader("Fig. 11 time ms (rows: lambda): " + c.name, "lambda", series);
  for (size_t i = 0; i < grid.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%g", grid[i]);
    PrintRow(buf, ms_rows[i]);
  }
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const size_t anticor_n = static_cast<size_t>(
      flags.GetInt("anticor_n", flags.Has("full") ? 10000 : 2000));
  const int k = flags.GetInt("k", 20);
  if (!bench::CheckFlags(flags, "bench_fig10_11_params")) return 1;

  // The paper sweeps {0.00125, 0.0025, ..., 0.64} (factor 2); the default
  // grid here uses the paper's axis ticks (factor 8), --full the whole grid.
  const std::vector<double> grid =
      flags.Has("full")
          ? std::vector<double>{0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04,
                                0.08, 0.16, 0.32, 0.64}
          : std::vector<double>{0.00125, 0.01, 0.08, 0.64};

  std::printf("=== Figs. 10 + 11: BiGreedy+ sensitivity to eps and lambda "
              "===\n");

  const std::vector<std::string> keys =
      flags.Has("full") ? MultiDimCaseKeys()
                        : std::vector<std::string>{"adult:gender", "anticor",
                                                   "credit:job"};
  for (const std::string& key : keys) {
    const DatasetCase c = key == "anticor"
                              ? MakeCase(key, seed, anticor_n, 6, 3)
                              : MakeCase(key, seed);
    Panel(c, k, grid);
  }

  std::printf("\nExpected shape (paper): MHR improves sharply from 0.64 down "
              "to ~0.08 and\nthen plateaus; smaller eps/lambda inflate "
              "running time; eps = 0.02,\nlambda = 0.04 is the sweet "
              "spot.\n");
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
