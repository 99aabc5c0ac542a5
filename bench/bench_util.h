// The pass-bench harness: bench_kernel, bench_session_amortization,
// bench_dynamic_updates and bench_snapshot time named passes of one
// workload through the Harness below. bench_paper, which prints the
// paper's tables, uses only CheckFlags from here; its dataset cases,
// rosters and table printing are its own.

#ifndef FAIRHMS_BENCH_BENCH_UTIL_H_
#define FAIRHMS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "cli_util.h"
#include "common/statusor.h"

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

// ---------------------------------------------------------------------------
// The pass harness shared by the perf benches (bench_kernel,
// bench_session_amortization, bench_dynamic_updates, bench_snapshot). A
// scenario is a setup, named passes and a checksum: every pass of an op
// computes the same answer a different way, so every row of an op must
// carry the same checksum. Output, read by tools/bench_to_json:
//
//   # bench=kernel n=10000 ... reps=5 simd=avx2 capacity_x1=1.00 ...
//   op,pass,threads,reps,ms_min,ms_median,ms_p90,checksum
//   cache_fill,legacy,1,5,215.546,231.477,240.112,6.25e+06|1.6e+08

/// Serial, order-fixed digest of a value sequence: bit-identical values
/// digest to the same string however they were computed, and the
/// position-weighted companion sum catches reorderings.
class Digest {
 public:
  void Add(double v) {
    sum_ += v;
    alt_ += v * static_cast<double>((count_++ % 64) + 1);
  }
  template <typename T>
  void Add(const T* values, size_t count) {
    for (size_t i = 0; i < count; ++i) Add(static_cast<double>(values[i]));
  }
  /// Folds a solve's selected rows, its own mhr and its violation count.
  void AddResult(const SolverResult& result);
  std::string str() const;

 private:
  double sum_ = 0.0;
  double alt_ = 0.0;
  size_t count_ = 0;
};

/// The wall times one repetition of a pass recorded, by op.
class Rep {
 public:
  /// Adds `ms` to `op`'s time in this repetition.
  void Add(const std::string& op, double ms);

 private:
  friend class Harness;
  std::vector<std::pair<std::string, double>> ms_;  ///< First-seen order.
};

class Harness {
 public:
  /// One repetition of a pass: records its timed sections on `rep` and
  /// returns the checksum of what it computed. An error stops the bench.
  using Body = std::function<StatusOr<std::string>(Rep& rep)>;

  /// Reads --reps (default 3) from `flags`; `name` is the "# bench=" key.
  Harness(const cli::Flags& flags, std::string name);

  /// --key as a non-empty comma-separated list, `def` when absent. Int
  /// entries must be >= 1 and double entries >= 0; a bad list is recorded
  /// as a flag error and fails Start().
  std::vector<std::string> Strings(const std::string& key,
                                   const std::string& def);
  std::vector<int> Ints(const std::string& key, const std::string& def);
  std::vector<double> Doubles(const std::string& key, const std::string& def);

  /// Ends flag parsing like CheckFlags and refuses --reps < 1, then prints
  /// the config line ("# bench=<name> <config> reps=R simd=<level>" plus
  /// CapacityProbe()) and the CSV header. False: the bench must exit 1.
  bool Start(const std::string& config);

  /// Runs `body` --reps times as `pass` at `threads` threads and prints
  /// one row per op it timed. False, with the reason on stderr, when the
  /// body fails or times nothing, or two repetitions disagree on the ops
  /// or the checksum.
  bool Pass(const std::string& pass, int threads, const Body& body);

 private:
  /// Records a bad flag value through flags_; Start() reports it.
  void Refuse(const std::string& message);

  const cli::Flags& flags_;
  std::string name_;
  int reps_;
};

}  // namespace bench
}  // namespace fairhms

#endif  // FAIRHMS_BENCH_BENCH_UTIL_H_
