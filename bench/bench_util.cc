#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "algo/baselines.h"
#include "algo/bigreedy.h"
#include "algo/fair_greedy.h"
#include "algo/group_adapter.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace bench {

std::string CapacityProbe() {
  auto spin = [](uint64_t iters) {
    uint64_t x = 88172645463325252ull;
    for (uint64_t i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<uint64_t> sink{0};
  auto wall_ms = [&](int threads, uint64_t iters) {
    Stopwatch sw;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] { sink += spin(iters); });
    }
    for (std::thread& t : pool) t.join();
    return sw.ElapsedMillis();
  };
  // Calibrate to about 40 ms of single-thread work, then wake every
  // virtual CPU the 4-thread run will use before timing anything.
  uint64_t iters = uint64_t{1} << 20;
  double ms = wall_ms(1, iters);
  while (ms < 10.0) {
    iters *= 4;
    ms = wall_ms(1, iters);
  }
  iters = static_cast<uint64_t>(static_cast<double>(iters) * 40.0 / ms);
  for (int i = 0; i < 5; ++i) wall_ms(4, iters);
  const double t1 = std::min(wall_ms(1, iters), wall_ms(1, iters));
  std::string out;
  for (const int n : {1, 2, 4}) {
    const double tn = std::min(wall_ms(n, iters), wall_ms(n, iters));
    out += StrFormat("%scapacity_x%d=%.2f", out.empty() ? "" : " ", n,
                     n * t1 / tn);
  }
  return out;
}

bool CheckFlags(const cli::Flags& flags, const char* prog) {
  const Status status = flags.Finish(prog);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", prog, status.ToString().c_str());
  }
  return status.ok();
}

namespace {

DatasetCase Finish(std::string name, Dataset normalized, Grouping grouping) {
  DatasetCase c;
  c.name = std::move(name);
  c.data = std::move(normalized);
  c.grouping = std::move(grouping);
  c.skyline = ComputeSkyline(c.data);
  c.pool = ComputeFairCandidatePool(c.data, c.grouping);
  return c;
}

}  // namespace

DatasetCase MakeCase(const std::string& key, uint64_t seed, size_t n_override,
                     int anticor_d, int anticor_c) {
  Rng rng(seed);
  const auto parts = Split(key, ':');
  const std::string& base = parts[0];
  const std::string attr = parts.size() > 1 ? parts[1] : "";

  if (base == "anticor") {
    const size_t n = n_override > 0 ? n_override : 10000;
    Dataset data = GenAntiCorrelated(n, anticor_d, &rng).ScaledByMax();
    Grouping g = GroupBySumRank(data, anticor_c);
    return Finish(StrFormat("AntiCor_%dD (C=%d, n=%zu)", anticor_d, anticor_c,
                            n),
                  std::move(data), std::move(g));
  }

  Dataset raw(1);
  std::string label;
  if (base == "lawschs") {
    raw = MakeLawschsSim(&rng, n_override > 0 ? n_override : 65494);
    label = "Lawschs";
  } else if (base == "adult") {
    raw = MakeAdultSim(&rng, n_override > 0 ? n_override : 32561);
    label = "Adult";
  } else if (base == "compas") {
    raw = MakeCompasSim(&rng, n_override > 0 ? n_override : 4743);
    label = "Compas";
  } else if (base == "credit") {
    raw = MakeCreditSim(&rng, n_override > 0 ? n_override : 1000);
    label = "Credit";
  } else {
    std::fprintf(stderr, "unknown dataset key '%s'\n", key.c_str());
    std::abort();
  }
  Dataset data = raw.ScaledByMax();

  Grouping g;
  std::string attr_label = attr;
  if (attr == "g+r") {
    g = GroupByCategoricalProduct(data, {"gender", "race"}).value();
    attr_label = "G+R";
  } else if (attr == "g+ir") {
    g = GroupByCategoricalProduct(data, {"gender", "isRecid"}).value();
    attr_label = "G+iR";
  } else if (attr == "wy") {
    g = GroupByCategorical(data, "working_years").value();
    attr_label = "WY";
  } else {
    g = GroupByCategorical(data, attr).value();
  }
  return Finish(label + " (" + attr_label + ")", std::move(data),
                std::move(g));
}

std::vector<std::string> MultiDimCaseKeys() {
  return {"adult:gender",  "adult:race",     "adult:g+r",
          "anticor",       "compas:gender",  "compas:isRecid",
          "compas:g+ir",   "credit:job",     "credit:housing",
          "credit:wy"};
}

GroupBounds PaperBounds(const DatasetCase& c, int k) {
  return GroupBounds::Proportional(k, c.grouping.Counts(), 0.1);
}

double ReferenceMhr(const DatasetCase& c, const std::vector<int>& rows) {
  return EvaluateMhr(c.data, c.skyline, rows);
}

std::vector<std::pair<std::string, FairRunner>> FairRoster(bool with_intcov) {
  std::vector<std::pair<std::string, FairRunner>> roster;
  if (with_intcov) {
    roster.emplace_back("IntCov", [](const DatasetCase& c,
                                     const GroupBounds& b) {
      IntCovOptions opts;
      opts.pool = c.pool;
      opts.db_rows = c.skyline;
      return IntCov(c.data, c.grouping, b, opts);
    });
  }
  roster.emplace_back("BiGreedy", [](const DatasetCase& c,
                                     const GroupBounds& b) {
    BiGreedyOptions opts;
    opts.pool = c.pool;
    opts.db_rows = c.skyline;
    return BiGreedy(c.data, c.grouping, b, opts);
  });
  roster.emplace_back("BiGreedy+", [](const DatasetCase& c,
                                      const GroupBounds& b) {
    BiGreedyPlusOptions opts;
    opts.base.pool = c.pool;
    opts.base.db_rows = c.skyline;
    return BiGreedyPlus(c.data, c.grouping, b, opts);
  });
  roster.emplace_back("F-Greedy", [](const DatasetCase& c,
                                     const GroupBounds& b) {
    FairGreedyOptions opts;
    opts.pool = c.pool;
    opts.db_rows = c.skyline;
    return FairGreedy(c.data, c.grouping, b, opts);
  });
  roster.emplace_back("G-Greedy", [](const DatasetCase& c,
                                     const GroupBounds& b) {
    GroupAdapterOptions opts;
    opts.db_rows = c.skyline;
    return GroupAdapt(
        [](const Dataset& d, const std::vector<int>& rows, int k) {
          return RdpGreedy(d, rows, k);
        },
        "Greedy", c.data, c.grouping, b, opts);
  });
  roster.emplace_back("G-DMM", [](const DatasetCase& c,
                                  const GroupBounds& b) {
    GroupAdapterOptions opts;
    opts.db_rows = c.skyline;
    return GroupAdapt(
        [](const Dataset& d, const std::vector<int>& rows, int k) {
          return Dmm(d, rows, k);
        },
        "DMM", c.data, c.grouping, b, opts);
  });
  roster.emplace_back("G-HS", [](const DatasetCase& c, const GroupBounds& b) {
    GroupAdapterOptions opts;
    opts.db_rows = c.skyline;
    return GroupAdapt(
        [](const Dataset& d, const std::vector<int>& rows, int k) {
          return HittingSet(d, rows, k);
        },
        "HS", c.data, c.grouping, b, opts);
  });
  roster.emplace_back("G-Sphere", [](const DatasetCase& c,
                                     const GroupBounds& b) {
    GroupAdapterOptions opts;
    opts.db_rows = c.skyline;
    return GroupAdapt(
        [](const Dataset& d, const std::vector<int>& rows, int k) {
          return SphereAlgo(d, rows, k);
        },
        "Sphere", c.data, c.grouping, b, opts);
  });
  return roster;
}

std::vector<std::pair<std::string, PlainRunner>> PlainRoster() {
  std::vector<std::pair<std::string, PlainRunner>> roster;
  roster.emplace_back("Greedy", [](const DatasetCase& c, int k) {
    return RdpGreedy(c.data, c.skyline, k);
  });
  roster.emplace_back("DMM", [](const DatasetCase& c, int k) {
    return Dmm(c.data, c.skyline, k);
  });
  roster.emplace_back("HS", [](const DatasetCase& c, int k) {
    return HittingSet(c.data, c.skyline, k);
  });
  roster.emplace_back("Sphere", [](const DatasetCase& c, int k) {
    return SphereAlgo(c.data, c.skyline, k);
  });
  return roster;
}

RunResult RunFair(const FairRunner& runner, const DatasetCase& c,
                  const GroupBounds& bounds) {
  RunResult r;
  auto sol = runner(c, bounds);
  if (!sol.ok()) {
    r.ok = false;
    r.note = StatusCodeToString(sol.status().code());
    return r;
  }
  r.ok = true;
  r.ms = sol->elapsed_ms;
  r.mhr = ReferenceMhr(c, sol->rows);
  r.violations = CountViolations(sol->rows, c.grouping, bounds);
  return r;
}

RunResult RunPlain(const PlainRunner& runner, const DatasetCase& c, int k,
                   const GroupBounds& bounds) {
  RunResult r;
  auto sol = runner(c, k);
  if (!sol.ok()) {
    r.ok = false;
    r.note = StatusCodeToString(sol.status().code());
    return r;
  }
  r.ok = true;
  r.ms = sol->elapsed_ms;
  r.mhr = ReferenceMhr(c, sol->rows);
  r.violations = CountViolations(sol->rows, c.grouping, bounds);
  return r;
}

double UnconstrainedReference(const DatasetCase& c, int k) {
  const Grouping single = SingleGroup(c.data.size());
  std::vector<int> lower = {0};
  std::vector<int> upper = {k};
  auto bounds = GroupBounds::Explicit(k, lower, upper);
  if (!bounds.ok()) return 0.0;
  if (c.data.dim() == 2) {
    IntCovOptions opts;
    opts.db_rows = c.skyline;
    auto sol = IntCov(c.data, single, *bounds, opts);
    if (sol.ok()) return ReferenceMhr(c, sol->rows);
  }
  double best = 0.0;
  for (const auto& [name, runner] : PlainRoster()) {
    auto sol = runner(c, k);
    if (sol.ok()) best = std::max(best, ReferenceMhr(c, sol->rows));
  }
  // Unconstrained BiGreedy as well (usually the strongest).
  BiGreedyOptions opts;
  opts.db_rows = c.skyline;
  auto bg = BiGreedy(c.data, single, *bounds, opts);
  if (bg.ok()) best = std::max(best, ReferenceMhr(c, bg->rows));
  return best;
}

namespace {
constexpr int kColWidth = 11;
}  // namespace

void PrintHeader(const std::string& title, const std::string& xlabel,
                 const std::vector<std::string>& series) {
  std::printf("\n## %s\n", title.c_str());
  std::printf("%-14s", xlabel.c_str());
  for (const auto& s : series) std::printf("%*s", kColWidth, s.c_str());
  std::printf("\n");
  for (size_t i = 0; i < 14 + series.size() * kColWidth; ++i)
    std::printf("-");
  std::printf("\n");
}

void PrintRow(const std::string& x, const std::vector<std::string>& cells) {
  std::printf("%-14s", x.c_str());
  for (const auto& c : cells) std::printf("%*s", kColWidth, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatMhr(const RunResult& r) {
  if (!r.ok) return "-";
  return StrFormat("%.4f", r.mhr);
}

std::string FormatMs(const RunResult& r) {
  if (!r.ok) return "-";
  if (r.ms >= 100) return StrFormat("%.0f", r.ms);
  return StrFormat("%.2f", r.ms);
}

std::string FormatErr(const RunResult& r) {
  if (!r.ok) return "-";
  return StrFormat("%d", r.violations);
}

}  // namespace bench
}  // namespace fairhms
