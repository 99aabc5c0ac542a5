// Shared infrastructure for the paper-reproduction bench harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it builds
// the dataset cases (statistical replicas; load the real CSVs via data/csv.h
// if you have them), runs the algorithm roster, and prints the same
// rows/series the paper reports. Pass --full for paper-scale extremes
// (larger n / d); defaults keep every binary in the seconds-to-minutes
// range.

#ifndef FAIRHMS_BENCH_BENCH_UTIL_H_
#define FAIRHMS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/statusor.h"
#include "core/solution.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"

namespace fairhms {
namespace bench {

/// Ends a bench's flag lookups (cli::Flags::Finish): warns on stderr
/// about every flag it never read and reports a malformed value. Returns
/// false when a value was malformed; the bench must then exit non-zero
/// rather than run with a default in its place.
bool CheckFlags(const cli::Flags& flags, const char* prog);

/// Measures how many cores' worth of a fixed integer spin the host really
/// delivers at 1, 2 and 4 threads (n * t1 / tn, min of two runs each,
/// after a short warm-up that wakes idle virtual CPUs). Returns config
/// tokens for a "# bench=..." line: "capacity_x1=1.00 capacity_x2=1.97
/// capacity_x4=3.81".
std::string CapacityProbe();

/// One benchmark instance: normalized data + grouping + labels.
struct DatasetCase {
  std::string name;      ///< Display name, e.g. "Adult (Gender)".
  Dataset data{1};       ///< ScaledByMax-normalized numeric attributes.
  Grouping grouping;
  std::vector<int> skyline;  ///< Global skyline (evaluation denominators).
  std::vector<int> pool;     ///< Fair candidate pool (per-group skylines).
};

/// Builds a dataset case by key:
///   lawschs:gender lawschs:race adult:gender adult:race adult:g+r
///   compas:gender compas:isRecid compas:g+ir
///   credit:job credit:housing credit:wy
///   anticor (uses n/d/c arguments)
/// Replica sizes follow Table 2 unless `n_override` > 0.
DatasetCase MakeCase(const std::string& key, uint64_t seed = 42,
                     size_t n_override = 0, int anticor_d = 6,
                     int anticor_c = 3);

/// The ten dataset/group combinations of Figs. 5, 6, 8-11.
std::vector<std::string> MultiDimCaseKeys();

/// Result row of one algorithm run.
struct RunResult {
  bool ok = false;
  double mhr = 0.0;
  double ms = 0.0;
  int violations = 0;
  std::string note;  ///< Failure reason for skipped bars ("k<d", "OOM"...).
};

/// A fair algorithm: solves FairHMS on the case under the bounds.
using FairRunner =
    std::function<StatusOr<Solution>(const DatasetCase&, const GroupBounds&)>;

/// An unconstrained HMS baseline: solves on the case's global skyline.
using PlainRunner =
    std::function<StatusOr<Solution>(const DatasetCase&, int k)>;

/// The paper's fair roster (Figs. 4-7): BiGreedy, BiGreedy+, F-Greedy,
/// G-Greedy, G-DMM, G-HS, G-Sphere; IntCov included when `with_intcov`.
std::vector<std::pair<std::string, FairRunner>> FairRoster(bool with_intcov);

/// The unconstrained roster of Fig. 3: Greedy, DMM, HS, Sphere.
std::vector<std::pair<std::string, PlainRunner>> PlainRoster();

/// Runs a fair algorithm and evaluates its solution with the reference
/// evaluator (exact 2D / exact LP / high-resolution net as appropriate).
RunResult RunFair(const FairRunner& runner, const DatasetCase& c,
                  const GroupBounds& bounds);

/// Runs an unconstrained baseline; violations are measured against `bounds`.
RunResult RunPlain(const PlainRunner& runner, const DatasetCase& c, int k,
                   const GroupBounds& bounds);

/// Unconstrained reference MHR ("price of fairness" black line): exact via
/// IntCov for d = 2, best-of-roster otherwise.
double UnconstrainedReference(const DatasetCase& c, int k);

/// Reference mhr of a solution (exact when affordable).
double ReferenceMhr(const DatasetCase& c, const std::vector<int>& rows);

/// Proportional bounds with alpha = 0.1 (the paper's default).
GroupBounds PaperBounds(const DatasetCase& c, int k);

/// Prints a table header / row with fixed-width columns.
void PrintHeader(const std::string& title, const std::string& xlabel,
                 const std::vector<std::string>& series);
void PrintRow(const std::string& x, const std::vector<std::string>& cells);

/// Formats a RunResult metric ("-" for failures with the note appended).
std::string FormatMhr(const RunResult& r);
std::string FormatMs(const RunResult& r);
std::string FormatErr(const RunResult& r);

}  // namespace bench
}  // namespace fairhms

#endif  // FAIRHMS_BENCH_BENCH_UTIL_H_
