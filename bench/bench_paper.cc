// bench_paper: regenerates the paper's evaluation (Tables 1-2 and Figs.
// 3-11 of Sec. 5) plus two ablations from one table of named panels
// (kPanels below). Each panel prints its banner, its tables and its
// closing "Expected shape (paper)" text; the datasets are statistical
// replicas of the paper's (data/generators.h; load the real CSVs via
// data/csv.h if you have them). The algorithms solve through the
// AlgorithmRegistry, as the CLI and the daemon serve them (kAlgos).
//
//   ./build/bench/bench_paper                        # every panel, in order
//   ./build/bench/bench_paper --panels=fig4,fig8_9   # a subset, table order
//
// Flags: --seed (default 42); --full for paper-scale extremes (larger n, d
// and grids); --anticor_n, the anti-correlated replica's n (each panel has
// its own default, 10000 under --full); --k, the fixed k of fig7, fig8_9,
// fig10_11, ablation_bounds and tau_ablation (the other panels sweep k
// themselves); --panels, a comma list of panel names (default: all).

#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/bigreedy.h"
#include "algo/intcov.h"
#include "api/session.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/artifact_cache.h"
#include "core/evaluate.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

// ---------------------------------------------------------------------------
// Dataset cases.

/// One benchmark instance: normalized data + grouping + labels.
struct DatasetCase {
  std::string name;      ///< Display name, e.g. "Adult (Gender)".
  Dataset data{1};       ///< ScaledByMax-normalized numeric attributes.
  Grouping grouping;
  std::vector<int> skyline;  ///< Global skyline (evaluation denominators).
  std::vector<int> pool;     ///< Fair candidate pool (per-group skylines).
};

DatasetCase Finish(std::string name, Dataset normalized, Grouping grouping) {
  DatasetCase c;
  c.name = std::move(name);
  c.data = std::move(normalized);
  c.grouping = std::move(grouping);
  c.skyline = ComputeSkyline(c.data);
  c.pool = ComputeFairCandidatePool(c.data, c.grouping);
  return c;
}

/// Builds a dataset case by key:
///   lawschs:gender lawschs:race adult:gender adult:race adult:g+r
///   compas:gender compas:isRecid compas:g+ir
///   credit:job credit:housing credit:wy
///   anticor (uses n/d/c arguments)
/// Replica sizes follow Table 2 unless `n_override` > 0.
DatasetCase MakeCase(const std::string& key, uint64_t seed,
                     size_t n_override = 0, int anticor_d = 6,
                     int anticor_c = 3) {
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

/// The ten dataset/group combinations of Figs. 5, 6, 8-11.
const std::vector<std::string> kMultiDimKeys = {
    "adult:gender",  "adult:race",     "adult:g+r",  "anticor",
    "compas:gender", "compas:isRecid", "compas:g+ir", "credit:job",
    "credit:housing", "credit:wy"};

/// What a panel body reads: the flags, resolved against its defaults.
struct Args {
  uint64_t seed;
  bool full;
  size_t anticor_n;  ///< The anti-correlated replica's n.
  int k;             ///< The panel's fixed k; 0 when it sweeps k itself.
};

/// A case by key: "anticor" at d = 6, C = 3 and the panel's n; the
/// replicas at their Table 2 sizes.
DatasetCase Case(const std::string& key, const Args& a) {
  return key == "anticor" ? MakeCase(key, a.seed, a.anticor_n, 6, 3)
                          : MakeCase(key, a.seed);
}

/// Proportional bounds with alpha = 0.1 (the paper's default).
GroupBounds PaperBounds(const DatasetCase& c, int k) {
  return GroupBounds::Proportional(k, c.grouping.Counts(), 0.1);
}

/// Reference mhr of a solution (exact when affordable).
double ReferenceMhr(const DatasetCase& c, const std::vector<int>& rows) {
  return EvaluateMhr(c.data, c.skyline, rows);
}

// ---------------------------------------------------------------------------
// Algorithm rosters.

/// The rosters: Fig. 4 (k2D), Figs. 5-7 (kFair), Fig. 3 (kViolations) and
/// UnconstrainedReference's heuristics (kUnconstrained).
enum RosterBit { k2D = 1, kFair = 2, kViolations = 4, kUnconstrained = 8 };

/// One algorithm the panels solve through the registry: its column label,
/// registry name, request seed and RosterBits. The randomized ones keep
/// the seeds their entry points default to (BiGreedyOptions 13,
/// SphereOptions 29, HittingSetOptions 31); the rest ignore the seed.
struct Algo {
  const char* label;
  const char* name;
  uint64_t seed;
  int rosters;
};

/// Every roster, in column order. The G-* baselines run an unconstrained
/// algorithm per group under its quota; the plain ones solve on the global
/// skyline, the bounds only judging violations.
const Algo kAlgos[] = {
    {"IntCov", "intcov", 42, k2D},
    {"BiGreedy", "bigreedy", 13, k2D | kFair | kViolations | kUnconstrained},
    {"BiGreedy+", "bigreedy+", 13, k2D | kFair | kViolations},
    {"F-Greedy", "fair_greedy", 42, k2D | kFair},
    {"G-Greedy", "g_greedy", 42, k2D | kFair},
    {"G-DMM", "g_dmm", 42, k2D | kFair},
    {"G-HS", "g_hs", 31, k2D | kFair},
    {"G-Sphere", "g_sphere", 29, k2D | kFair},
    {"Greedy", "rdp_greedy", 42, kViolations | kUnconstrained},
    {"DMM", "dmm", 42, kViolations | kUnconstrained},
    {"HS", "hs", 31, kViolations | kUnconstrained},
    {"Sphere", "sphere", 29, kViolations | kUnconstrained},
};

using Roster = std::vector<const Algo*>;

/// The entries of kAlgos in roster `bit`, in table order.
Roster RosterOf(RosterBit bit) {
  Roster roster;
  for (const Algo& algo : kAlgos) {
    if (algo.rosters & bit) roster.push_back(&algo);
  }
  return roster;
}

/// The kAlgos entry with registry name `name`.
const Algo& ByName(const std::string& name) {
  for (const Algo& algo : kAlgos) {
    if (name == algo.name) return algo;
  }
  std::abort();  // Called only with names from kAlgos.
}

/// A throwaway session on (c.data, `grouping`) whose cache holds the case's
/// skyline and `pool` as the fair pool (stored with ArtifactCache::Put):
/// its solves build nets and evaluators cold.
SolverSession SeededSession(const DatasetCase& c, const Grouping& grouping,
                            const std::vector<int>& pool) {
  SolverSession session = SolverSession::Create(&c.data, &grouping).value();
  using Kind = ArtifactCache::Kind;
  session.cache()->Put(ArtifactCache::VersionedKey(Kind::kSkyline, c.data),
                       c.skyline);
  session.cache()->Put(
      ArtifactCache::VersionedKey(Kind::kFairPool, c.data, &grouping), pool);
  return session;
}

/// Solves `algo` under `bounds` in a fresh SeededSession of (`grouping`,
/// `pool`).
StatusOr<Solution> Solve(const Algo& algo, const DatasetCase& c,
                         const Grouping& grouping,
                         const std::vector<int>& pool,
                         const GroupBounds& bounds,
                         const AlgoParams& params = {}) {
  SolverSession session = SeededSession(c, grouping, pool);
  SolverRequest req;
  req.algorithm = algo.name;
  req.seed = algo.seed;
  req.bounds = bounds;
  req.params = params;
  FAIRHMS_ASSIGN_OR_RETURN(SolverResult result, session.Solve(req));
  return std::move(result.solution);
}

/// What a sweep table shows; indexes Cells.
enum Metric { kMhr, kMs, kErr };

/// One run's table cells, one per Metric: "-" each for a failed run.
using Cells = std::array<std::string, 3>;

/// Solves `algo` on the case and formats its answer: the reference mhr
/// (left empty unless `with_mhr`), the solve time and the violations of
/// `bounds`.
Cells Measure(const Algo& algo, const DatasetCase& c,
              const GroupBounds& bounds, bool with_mhr) {
  auto sol = Solve(algo, c, c.grouping, c.pool, bounds);
  if (!sol.ok()) return {"-", "-", "-"};
  const double ms = sol->elapsed_ms;
  return {with_mhr ? StrFormat("%.4f", ReferenceMhr(c, sol->rows)) : "",
          ms >= 100 ? StrFormat("%.0f", ms) : StrFormat("%.2f", ms),
          StrFormat("%d", CountViolations(sol->rows, c.grouping, bounds))};
}

/// The "Unconstr" column of the price-of-fairness tables: for d = 2 the
/// exact unconstrained optimum (IntCov on one all-rows group), otherwise
/// the best of the unconstrained heuristics and unconstrained BiGreedy.
/// That is no upper bound: a fair answer can beat it, so the printed price
/// of fairness can go negative (fig5 Compas (isRecid) reads 0.7116 at
/// k = 10 under fair BiGreedy's 0.7323).
double UnconstrainedReference(const DatasetCase& c, int k) {
  const Grouping single = SingleGroup(c.data.size());
  auto bounds = GroupBounds::Explicit(k, {0}, {k});
  if (!bounds.ok()) return 0.0;
  // One group of all rows has the global skyline as its fair pool.
  auto solve = [&](const Algo& algo) {
    return Solve(algo, c, single, c.skyline, *bounds);
  };
  if (c.data.dim() == 2) {
    auto sol = solve(ByName("intcov"));
    if (sol.ok()) return ReferenceMhr(c, sol->rows);
  }
  double best = 0.0;
  for (const Algo* algo : RosterOf(kUnconstrained)) {
    auto sol = solve(*algo);
    if (sol.ok()) best = std::max(best, ReferenceMhr(c, sol->rows));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Tables.

constexpr int kColWidth = 11;

/// Prints a table header / row with fixed-width columns.
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

/// A solve's reference mhr as "%.4f", or "-" when it failed.
std::string FormatMhr(const StatusOr<Solution>& sol, const DatasetCase& c) {
  return sol.ok() ? StrFormat("%.4f", ReferenceMhr(c, sol->rows)) : "-";
}

/// One x-axis point of a sweep: the case solved there and its k.
struct Point {
  std::string x;
  std::shared_ptr<const DatasetCase> c;
  int k;
};

/// The points of one case's k axis.
std::vector<Point> VaryK(DatasetCase c, const std::vector<int>& ks) {
  const auto shared = std::make_shared<const DatasetCase>(std::move(c));
  std::vector<Point> points;
  for (int k : ks) points.push_back({std::to_string(k), shared, k});
  return points;
}

/// A point with a case of its own.
Point At(std::string x, DatasetCase c, int k) {
  return {std::move(x), std::make_shared<const DatasetCase>(std::move(c)),
          k};
}

/// One printed table of a sweep.
struct Table {
  std::string title;
  Metric metric;
};

/// The sweep behind Figs. 3-7: runs every roster entry at every point under
/// PaperBounds, then prints `tables` over the same results. MHR tables end
/// in an "Unconstr" column (UnconstrainedReference) when `unconstrained`
/// is set. F-Greedy is skipped, "(skip)", on pools larger than
/// `fgreedy_pool_cap` (its LPs grow with the pool).
void Sweep(const Roster& roster, const std::string& xlabel,
           const std::vector<Point>& points, const std::vector<Table>& tables,
           bool unconstrained = false,
           size_t fgreedy_pool_cap = std::numeric_limits<size_t>::max()) {
  bool with_mhr = false;
  for (const Table& t : tables) with_mhr |= t.metric == kMhr;
  std::vector<std::vector<Cells>> results;
  std::vector<double> reference;
  for (const Point& p : points) {
    const GroupBounds bounds = PaperBounds(*p.c, p.k);
    std::vector<Cells>& row = results.emplace_back();
    for (const Algo* algo : roster) {
      row.push_back(std::string(algo->name) == "fair_greedy" &&
                            p.c->pool.size() > fgreedy_pool_cap
                        ? Cells{"(skip)", "(skip)", "(skip)"}
                        : Measure(*algo, *p.c, bounds, with_mhr));
    }
    if (unconstrained && with_mhr) {
      reference.push_back(UnconstrainedReference(*p.c, p.k));
    }
  }
  for (const Table& t : tables) {
    const bool reference_column = unconstrained && t.metric == kMhr;
    std::vector<std::string> series;
    for (const Algo* algo : roster) series.push_back(algo->label);
    if (reference_column) series.push_back("Unconstr");
    PrintHeader(t.title, xlabel, series);
    for (size_t i = 0; i < points.size(); ++i) {
      std::vector<std::string> cells;
      for (const Cells& r : results[i]) cells.push_back(r[t.metric]);
      if (reference_column) cells.push_back(StrFormat("%.4f", reference[i]));
      PrintRow(points[i].x, cells);
    }
  }
}

// ---------------------------------------------------------------------------
// Panel bodies.

// Table 1 and the paper's running example (Sec. 1 + Example 2.2): the
// eight LSAC applicants, the unconstrained HMS solutions at k = 3 and
// k = 2, and the gender-fair FairHMS solution at k = 2, with their
// published minimum happiness ratios.

Dataset MakeLsacTable1() {
  Dataset data(std::vector<std::string>{"lsat", "gpa"});
  data.AddCategoricalColumn("gender", {"Female", "Male"});
  data.AddCategoricalColumn("race", {"Black", "White", "Hispanic", "Asian"});
  const double lsat[] = {164, 163, 165, 160, 170, 161, 153, 156};
  const double gpa[] = {3.31, 3.55, 3.09, 3.83, 2.79, 3.69, 3.89, 3.87};
  const int male[] = {0, 1, 0, 1, 1, 0, 1, 0};
  const int race[] = {0, 0, 1, 1, 2, 2, 3, 3};
  for (int i = 0; i < 8; ++i) data.AddRow({lsat[i], gpa[i]}, {male[i], race[i]});
  return data;
}

void PrintSet(const char* label, const std::vector<int>& rows, double mhr,
              const Dataset& raw) {
  std::printf("%-38s {", label);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%sa%d", i ? ", " : "", rows[i] + 1);
  }
  std::printf("}  mhr = %.4f  genders = [", mhr);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& col = raw.categorical(0);
    std::printf("%s%s", i ? ", " : "",
                col.labels[static_cast<size_t>(
                               col.codes[static_cast<size_t>(rows[i])])]
                    .c_str());
  }
  std::printf("]\n");
}

void Table1(const Args&) {
  const Dataset raw = MakeLsacTable1();
  const Dataset data = raw.ScaledByMax();

  std::printf("%-5s %-8s %-10s %-6s %-5s\n", "ID", "Gender", "Race", "LSAT",
              "GPA");
  for (size_t i = 0; i < raw.size(); ++i) {
    std::printf("a%-4zu %-8s %-10s %-6.0f %-5.2f\n", i + 1,
                raw.categorical(0)
                    .labels[static_cast<size_t>(raw.categorical(0).codes[i])]
                    .c_str(),
                raw.categorical(1)
                    .labels[static_cast<size_t>(raw.categorical(1).codes[i])]
                    .c_str(),
                raw.at(i, 0), raw.at(i, 1));
  }

  const auto sky = ComputeSkyline(data);
  std::printf("\nAll %zu applicants lie on the skyline (paper: \"all the "
              "applicants are in the skyline\").\n",
              sky.size());

  std::printf("\n=== Running example (paper Sec. 1 / Example 2.2) ===\n");
  std::printf("%-38s %s\n", "paper", "this implementation");

  const Grouping single = SingleGroup(8);
  {
    auto sol =
        IntCov(data, single, GroupBounds::Explicit(3, {0}, {3}).value());
    PrintSet("HMS k=3 (paper: {a4,a5,a7}, 0.9984)", sol->rows, sol->mhr, raw);
  }
  {
    auto sol =
        IntCov(data, single, GroupBounds::Explicit(2, {0}, {2}).value());
    PrintSet("HMS k=2 (paper: {a4,a5}, 0.9846)", sol->rows, sol->mhr, raw);
  }
  {
    auto gender = GroupByCategorical(data, "gender").value();
    auto sol = IntCov(data, gender,
                      GroupBounds::Explicit(2, {1, 1}, {1, 1}).value());
    PrintSet("FairHMS k=2 (paper: {a5,a8}, 0.9834)", sol->rows, sol->mhr,
             raw);
  }
  std::printf(
      "\nPrice of fairness on the example: %.4f -> %.4f (drop %.4f).\n",
      MhrExact2D(data, sky, {3, 4}), MhrExact2D(data, sky, {4, 7}),
      MhrExact2D(data, sky, {3, 4}) - MhrExact2D(data, sky, {4, 7}));
}

// Table 2: statistics of the experiment datasets — d, n, C and "#skylines"
// (the summed sizes of the per-group skylines that form the fair candidate
// pool).
void Table2(const Args& a) {
  std::printf("%-16s %-10s %3s %9s %4s %10s\n", "Dataset", "Group", "d", "n",
              "C", "#skylines");
  auto row = [](const DatasetCase& c, const char* dataset,
                const char* group) {
    size_t summed = 0;
    for (const auto& sky : ComputeGroupSkylines(c.data, c.grouping)) {
      summed += sky.size();
    }
    std::printf("%-16s %-10s %3d %9zu %4d %10zu\n", dataset, group,
                c.data.dim(), c.data.size(), c.grouping.num_groups, summed);
  };
  for (int d : {2, 6}) {
    row(MakeCase("anticor", a.seed, a.anticor_n, d, 3), "Anti-Correlated",
        "sum-rank");
  }
  row(MakeCase("lawschs:gender", a.seed), "Lawschs", "Gender");
  row(MakeCase("lawschs:race", a.seed), "Lawschs", "Race");
  row(MakeCase("adult:gender", a.seed), "Adult", "Gender");
  row(MakeCase("adult:race", a.seed), "Adult", "Race");
  row(MakeCase("adult:g+r", a.seed), "Adult", "G+R");
  row(MakeCase("compas:gender", a.seed), "Compas", "Gender");
  row(MakeCase("compas:isRecid", a.seed), "Compas", "isRecid");
  row(MakeCase("compas:g+ir", a.seed), "Compas", "G+iR");
  row(MakeCase("credit:housing", a.seed), "Credit", "Housing");
  row(MakeCase("credit:job", a.seed), "Credit", "Job");
  row(MakeCase("credit:wy", a.seed), "Credit", "WorkingYears");
}

// Fig. 3: numbers of fairness violations err(S) vs k. The fairness-unaware
// baselines (Greedy, DMM, HS, Sphere) run in their original form on the
// global skyline; BiGreedy/BiGreedy+ run with the proportional constraint.
void Fig3(const Args& a) {
  const Roster roster = RosterOf(kViolations);
  const std::vector<int> adult_ks = {10, 12, 14, 16, 18, 20};
  const std::vector<int> wide_ks = a.full
                                       ? std::vector<int>{10, 20, 30, 40, 50}
                                       : std::vector<int>{10, 20, 30};
  for (const char* key : {"adult:gender", "adult:race", "anticor",
                          "compas:gender", "credit:job"}) {
    DatasetCase c = Case(key, a);
    const std::string title = "Fig. 3 - fairness violations err(S): " + c.name;
    const bool adult = std::string(key).rfind("adult", 0) == 0;
    Sweep(roster, "k", VaryK(std::move(c), adult ? adult_ks : wide_ks),
          {{title, kErr}});
  }
}

// Fig. 4: MHR (a-e) and running time (f-j) on two-dimensional datasets —
// Lawschs (Gender / Race) and AntiCor_2D — versus k, C and n, including the
// unconstrained-optimum black line ("price of fairness").
void Fig4(const Args& a) {
  const Roster roster = RosterOf(k2D);
  const std::pair<DatasetCase, std::vector<int>> by_k[] = {
      {MakeCase("lawschs:gender", a.seed), {2, 3, 4, 5, 6}},
      {MakeCase("lawschs:race", a.seed), {5, 6, 7, 8, 9, 10}},
      {MakeCase("anticor", a.seed, a.anticor_n, 2, 3), {5, 6, 7, 8, 9, 10}}};
  for (const auto& [c, ks] : by_k) {
    Sweep(roster, "k", VaryK(c, ks),
          {{"Fig. 4 MHR: " + c.name, kMhr},
           {"Fig. 4 time (ms): " + c.name, kMs}},
          /*unconstrained=*/true);
  }

  std::vector<Point> by_c;
  for (int c_num : {2, 3, 4, 5}) {
    by_c.push_back(At(std::to_string(c_num),
                      MakeCase("anticor", a.seed, a.anticor_n, 2, c_num), 5));
  }
  Sweep(roster, "C", by_c,
        {{"Fig. 4(d) MHR: AntiCor_2D vary C (k=5)", kMhr},
         {"Fig. 4(i) time (ms): AntiCor_2D vary C (k=5)", kMs}});

  std::vector<size_t> ns = {100, 1000, 10000, 100000};
  if (a.full) ns.push_back(1000000);
  std::vector<Point> by_n;
  for (size_t n : ns) {
    by_n.push_back(At(std::to_string(n), MakeCase("anticor", a.seed, n, 2, 3),
                      5));
  }
  Sweep(roster, "n", by_n,
        {{"Fig. 4(e) MHR: AntiCor_2D vary n (k=5)", kMhr},
         {"Fig. 4(j) time (ms): AntiCor_2D vary n (k=5)", kMs}});
}

// Figs. 5 (MHR, with the unconstrained best-of-roster black line) and 6
// (running time): the fair roster on the ten multi-dimensional
// dataset/group combinations, varying solution size k.
void MultiDimK(const Args& a, const std::string& title, Metric metric) {
  for (const std::string& key : kMultiDimKeys) {
    DatasetCase c = Case(key, a);
    const std::string t = title + c.name;
    const std::vector<int> ks = key == "adult:gender"
                                    ? std::vector<int>{6, 8, 10, 12, 14, 16}
                                    : std::vector<int>{10, 12, 14, 16, 18, 20};
    Sweep(RosterOf(kFair), "k", VaryK(std::move(c), ks),
          {{t, metric}}, /*unconstrained=*/true);
  }
}

void Fig5(const Args& a) { MultiDimK(a, "Fig. 5 MHR: ", kMhr); }
void Fig6(const Args& a) { MultiDimK(a, "Fig. 6 time (ms): ", kMs); }

// Fig. 7: scalability on anti-correlated data at the panel's k — (a)
// varying dimensionality d, (b) varying group count C (d = 6), (c) varying
// cardinality n (d = 6). MHR and time per panel.
void Fig7(const Args& a) {
  const size_t fgreedy_pool_cap = a.full ? 20000 : 6000;
  auto sweep = [&](const char* tag, const std::string& what,
                   const std::string& xlabel,
                   const std::vector<Point>& points) {
    Sweep(RosterOf(kFair), xlabel, points,
          {{StrFormat("Fig. 7(%s) MHR: ", tag) + what, kMhr},
           {StrFormat("Fig. 7(%s) time (ms): ", tag) + what, kMs}},
          /*unconstrained=*/false, fgreedy_pool_cap);
  };

  std::vector<int> ds = {2, 3, 4, 5, 6, 7, 8};
  if (a.full) ds.insert(ds.end(), {10, 12, 16});
  std::vector<Point> by_d;
  for (int d : ds) {
    by_d.push_back(
        At(std::to_string(d), MakeCase("anticor", a.seed, a.anticor_n, d, 3),
           a.k));
  }
  sweep("a", "AntiCor vary d", "d", by_d);

  std::vector<Point> by_c;
  for (int c_num = 2; c_num <= 10; ++c_num) {
    by_c.push_back(At(std::to_string(c_num),
                      MakeCase("anticor", a.seed, a.anticor_n, 6, c_num),
                      a.k));
  }
  sweep("b", "AntiCor_6D vary C", "C", by_c);

  std::vector<size_t> ns = {100, 1000, 10000};
  if (a.full) ns.insert(ns.end(), {100000, 1000000});
  std::vector<Point> by_n;
  for (size_t n : ns) {
    by_n.push_back(
        At(std::to_string(n), MakeCase("anticor", a.seed, n, 6, 3), a.k));
  }
  sweep("c", "AntiCor_6D vary n", "n", by_n);
}

// Figs. 8 (MHR) and 9 (time) jointly: BiGreedy vs BiGreedy+ as the net
// size m (resp. the cap M) sweeps over {1.25, 2.5, 5, 10, 20, 40} * k * d.
void Fig8_9(const Args& a) {
  for (const std::string& key : kMultiDimKeys) {
    const DatasetCase c = Case(key, a);
    const GroupBounds bounds = PaperBounds(c, a.k);
    const int d = c.data.dim();
    PrintHeader("Fig. 8/9 net-size sweep: " + c.name +
                    " (k=" + std::to_string(a.k) + ")",
                "m", {"BG mhr", "BG+ mhr", "BG ms", "BG+ ms", "BG+ m_i"});
    for (double f : {1.25, 2.5, 5.0, 10.0, 20.0, 40.0}) {
      const size_t m = static_cast<size_t>(f * a.k * d);
      SolverSession bg_session = SeededSession(c, c.grouping, c.pool);
      BiGreedyOptions bg_opts;
      bg_opts.net_size = m;
      bg_opts.cache = bg_session.cache();
      auto bg = BiGreedy(c.data, c.grouping, bounds, bg_opts);

      SolverSession bgp_session = SeededSession(c, c.grouping, c.pool);
      BiGreedyPlusOptions bgp_opts;
      bgp_opts.max_net_size = m;
      bgp_opts.base.cache = bgp_session.cache();
      BiGreedyRunInfo info;
      auto bgp = BiGreedyPlus(c.data, c.grouping, bounds, bgp_opts, &info);

      PrintRow(std::to_string(m),
               {FormatMhr(bg, c), FormatMhr(bgp, c),
                bg.ok() ? StrFormat("%.1f", bg->elapsed_ms) : "-",
                bgp.ok() ? StrFormat("%.1f", bgp->elapsed_ms) : "-",
                std::to_string(info.net_size)});
    }
  }
}

// Figs. 10 (MHR) and 11 (time) jointly: BiGreedy+ over the (eps, lambda)
// grid — the capped-value search granularity and the adaptive sampling
// convergence threshold. The paper sweeps {0.00125, 0.0025, ..., 0.64}
// (factor 2); the default grid uses the paper's axis ticks (factor 8) on
// three cases, --full the whole grid on all ten.
void Fig10_11(const Args& a) {
  const std::vector<double> grid =
      a.full ? std::vector<double>{0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04,
                                   0.08, 0.16, 0.32, 0.64}
             : std::vector<double>{0.00125, 0.01, 0.08, 0.64};
  const std::vector<std::string> keys =
      a.full ? kMultiDimKeys
             : std::vector<std::string>{"adult:gender", "anticor",
                                        "credit:job"};
  std::vector<std::string> series, rows;
  for (double v : grid) {
    series.push_back(StrFormat("e=%g", v));
    rows.push_back(StrFormat("%g", v));
  }
  for (const std::string& key : keys) {
    const DatasetCase c = Case(key, a);
    const GroupBounds bounds = PaperBounds(c, a.k);
    std::vector<std::vector<std::string>> mhr_rows, ms_rows;
    for (double lambda : grid) {
      std::vector<std::string>& mhr_cells = mhr_rows.emplace_back();
      std::vector<std::string>& ms_cells = ms_rows.emplace_back();
      for (double eps : grid) {
        AlgoParams params;
        params.SetDouble("eps", eps);
        params.SetDouble("lambda", lambda);
        auto sol = Solve(ByName("bigreedy+"), c, c.grouping, c.pool, bounds,
                         params);
        mhr_cells.push_back(FormatMhr(sol, c));
        ms_cells.push_back(sol.ok() ? StrFormat("%.1f", sol->elapsed_ms)
                                    : "-");
      }
    }
    PrintHeader("Fig. 10 MHR (rows: lambda): " + c.name, "lambda", series);
    for (size_t i = 0; i < grid.size(); ++i) PrintRow(rows[i], mhr_rows[i]);
    PrintHeader("Fig. 11 time ms (rows: lambda): " + c.name, "lambda",
                series);
    for (size_t i = 0; i < grid.size(); ++i) PrintRow(rows[i], ms_rows[i]);
  }
}

// Ablation (beyond the paper's figures): how the fairness *scheme* shapes
// the solution. The paper defines two instantiations of the group-fairness
// constraint (Sec. 2) but evaluates only proportional representation; this
// panel compares
//   * proportional representation (alpha = 0.1)  — the paper's default,
//   * balanced representation (alpha = 0.1)      — equal shares per group,
//   * exact quotas (alpha = 0)                   — hard proportional shares,
// reporting MHR (price of fairness per scheme) and the violation count an
// *unconstrained* solution incurs under each scheme.
void AblationBounds(const Args& a) {
  for (const char* key : {"adult:gender", "adult:race", "anticor",
                          "credit:job"}) {
    const DatasetCase c = Case(key, a);
    const std::pair<const char*, GroupBounds> schemes[] = {
        {"proportional",
         GroupBounds::Proportional(a.k, c.grouping.Counts(), 0.1)},
        {"balanced",
         GroupBounds::Balanced(a.k, c.grouping.num_groups, 0.1).value()},
        {"exact-quota",
         GroupBounds::Proportional(a.k, c.grouping.Counts(), 0.0)}};

    const double unconstrained = UnconstrainedReference(c, a.k);
    const Grouping single = SingleGroup(c.data.size());
    auto greedy = Solve(ByName("rdp_greedy"), c, single, c.skyline,
                        GroupBounds::Explicit(a.k, {0}, {a.k}).value());

    PrintHeader("Bounds-scheme ablation: " + c.name + " (k=" +
                    std::to_string(a.k) + ")",
                "scheme", {"BG mhr", "price", "err(Greedy)", "feasible"});
    for (const auto& [name, bounds] : schemes) {
      if (!bounds.Validate(c.grouping.Counts()).ok()) {
        PrintRow(name, {"-", "-", "-", "no"});
        continue;
      }
      auto sol = Solve(ByName("bigreedy"), c, c.grouping, c.pool, bounds);
      if (!sol.ok()) {
        PrintRow(name, {"-", "-", "-", "yes"});
        continue;
      }
      const double mhr = ReferenceMhr(c, sol->rows);
      PrintRow(name,
               {StrFormat("%.4f", mhr), StrFormat("%.4f", unconstrained - mhr),
                greedy.ok() ? std::to_string(CountViolations(
                                  greedy->rows, c.grouping, bounds))
                            : std::string("-"),
                "yes"});
    }
  }
}

// Ablation: BiGreedy's tau search, binary vs linear, on the ten
// multi-dimensional cases.
void TauAblation(const Args& a) {
  for (const std::string& key : kMultiDimKeys) {
    const DatasetCase c = Case(key, a);
    const GroupBounds bounds = PaperBounds(c, a.k);
    PrintHeader("Ablation - tau search mode: " + c.name, "mode",
                {"mhr", "ms", "MRG calls"});
    for (TauSearch mode : {TauSearch::kBinary, TauSearch::kLinear}) {
      SolverSession session = SeededSession(c, c.grouping, c.pool);
      BiGreedyOptions opts;
      opts.tau_search = mode;
      opts.cache = session.cache();
      BiGreedyRunInfo info;
      auto sol = BiGreedy(c.data, c.grouping, bounds, opts, &info);
      PrintRow(mode == TauSearch::kBinary ? "binary" : "linear",
               sol.ok() ? std::vector<std::string>{FormatMhr(sol, c),
                                                   StrFormat("%.1f",
                                                             sol->elapsed_ms),
                                                   std::to_string(
                                                       info.mrgreedy_calls)}
                        : std::vector<std::string>{"-", "-", "-"});
    }
  }
}

// ---------------------------------------------------------------------------
// The panel table.

/// One panel of the evaluation; kPanels lists them in print order.
struct Panel {
  const char* name;    ///< Its --panels key.
  const char* banner;  ///< printf format; a %d prints the panel's k.
  size_t anticor_n;    ///< Default --anticor_n (10000 under --full).
  int k;               ///< Default --k; 0 when the panel sweeps k itself.
  void (*body)(const Args&);
  const char* shape;   ///< Closing text, printed unchanged.
};

const Panel kPanels[] = {
    {"table1", "=== Table 1: Example tuples in the LSAC database ===\n", 0,
     0, Table1, ""},
    {"table2",
     "=== Table 2: Statistics of datasets (replica defaults) ===\n", 4000, 0,
     Table2,
     "\nPaper reference (real files): Lawschs 19/42, Adult 130/206/339,\n"
     "Compas 195/229/296, Credit 120/126/185 summed group skylines;\n"
     "anti-correlated 0.9n-n. The replicas reproduce these scales.\n"},
    {"fig3",
     "=== Fig. 3: fairness violations of unconstrained algorithms "
     "(proportional bounds, alpha = 0.1) ===\n",
     3000, 0, Fig3,
     "\nExpected shape (paper): every baseline column is > 0 almost "
     "everywhere;\nBiGreedy/BiGreedy+ are identically 0.\n"},
    {"fig4",
     "=== Fig. 4: two-dimensional datasets (IntCov exact vs "
     "approximations; proportional bounds, alpha = 0.1) ===\n",
     4000, 0, Fig4,
     "\nExpected shape (paper): IntCov attains the highest MHR "
     "(exact) but is the\nslowest; BiGreedy/BiGreedy+ beat the "
     "adapted baselines; the gap between the\nunconstrained line "
     "and IntCov (price of fairness) stays within ~0.02.\n"},
    {"fig5",
     "=== Fig. 5: MHR on multi-dimensional datasets (proportional "
     "bounds, alpha = 0.1) ===\n",
     2000, 0, Fig5,
     "\nExpected shape (paper): MHR grows with k; BiGreedy >= "
     "BiGreedy+ > adapted\nbaselines in most panels; F-Greedy "
     "competitive (occasionally ahead on Credit);\nG-DMM/G-Sphere "
     "missing where h_c < d or DMM exceeds memory.\n"},
    {"fig6", "=== Fig. 6: running time on multi-dimensional datasets ===\n",
     2000, 0, Fig6,
     "\nExpected shape (paper): G-Sphere fastest, G-Greedy/G-HS "
     "fast, BiGreedy+\nup to ~5x faster than BiGreedy, F-Greedy "
     "slowest (one LP per skyline item\nper iteration).\n"},
    {"fig7",
     "=== Fig. 7: scalability on anti-correlated data (k = %d) ===\n", 2000,
     20, Fig7,
     "\nExpected shape (paper): MHR drops and time rises with d "
     "(curse of\ndimensionality; G-DMM exits with OOM beyond d~6); "
     "MHR drops as C grows\n(tighter constraint) while "
     "BiGreedy/BiGreedy+ widen their lead; time grows\nnear-linearly "
     "with n. (skip) marks F-Greedy runs beyond the LP budget —\n"
     "use --full to include them.\n"},
    {"fig8_9",
     "=== Figs. 8 + 9: effect of the net size m (BiGreedy) / cap M "
     "(BiGreedy+) ===\n",
     2000, 20, Fig8_9,
     "\nExpected shape (paper): MHR rises with m and saturates "
     "around m = 10kd;\ntime grows near-linearly with m; BiGreedy+ "
     "stops at m_i << M with little\nquality loss.\n"},
    {"fig10_11",
     "=== Figs. 10 + 11: BiGreedy+ sensitivity to eps and lambda ===\n",
     2000, 20, Fig10_11,
     "\nExpected shape (paper): MHR improves sharply from 0.64 down "
     "to ~0.08 and\nthen plateaus; smaller eps/lambda inflate "
     "running time; eps = 0.02,\nlambda = 0.04 is the sweet "
     "spot.\n"},
    {"ablation_bounds",
     "=== Ablation: fairness-scheme comparison (not a paper "
     "figure; extends Sec. 2's two instantiations) ===\n",
     2000, 12, AblationBounds,
     "\nReading: balanced bounds cost more MHR than proportional on "
     "skewed groups\n(they drag the solution toward tiny groups); "
     "exact quotas cost the most.\nUnconstrained solutions violate "
     "balanced bounds hardest.\n"},
    {"tau_ablation",
     "=== Ablation: BiGreedy tau search, binary vs linear (not a paper "
     "figure) ===\n",
     2000, 20, TauAblation, ""},
};

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  const bool full = flags.Has("full");
  // --anticor_n and --k override every panel's default; 0 = not given.
  auto at_least_one = [&flags](const char* key) {
    if (!flags.Has(key)) return 0;
    const int v = flags.GetInt(key, 1);
    if (v < 1) {
      flags.Error(Status::InvalidArgument(
          StrFormat("--%s=%d: must be >= 1", key, v)));
    }
    return v;
  };
  const int anticor_n = at_least_one("anticor_n");
  const int k = at_least_one("k");

  std::vector<bool> selected(std::size(kPanels), !flags.Has("panels"));
  std::string names;
  for (const Panel& p : kPanels) names += std::string(", ") + p.name;
  names = names.substr(2);
  const std::vector<std::string> wanted = flags.GetList("panels");
  if (flags.Has("panels") && wanted.empty()) {
    flags.Error(Status::InvalidArgument("--panels is empty (panels: " +
                                        names + ")"));
  }
  for (const std::string& name : wanted) {
    size_t i = 0;
    while (i < std::size(kPanels) && name != kPanels[i].name) ++i;
    if (i == std::size(kPanels)) {
      flags.Error(Status::InvalidArgument(StrFormat(
          "--panels: unknown panel '%s' (panels: %s)", name.c_str(),
          names.c_str())));
      continue;
    }
    selected[i] = true;
  }
  if (!bench::CheckFlags(flags, "bench_paper")) return 1;
  // A misspelt name would only print an all-"-" column (Measure turns every
  // error into "-") and exit 0, so refuse before any panel runs.
  for (const Algo& algo : kAlgos) {
    if (AlgorithmRegistry::Instance().Find(algo.name) == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown algorithm '%s'\n", algo.name);
      return 1;
    }
  }

  for (size_t i = 0; i < std::size(kPanels); ++i) {
    if (!selected[i]) continue;
    const Panel& p = kPanels[i];
    const Args args{seed, full,
                    anticor_n > 0 ? static_cast<size_t>(anticor_n)
                    : full        ? size_t{10000}
                                  : p.anticor_n,
                    k > 0 ? k : p.k};
    std::printf(p.banner, args.k);
    p.body(args);
    std::fputs(p.shape, stdout);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
