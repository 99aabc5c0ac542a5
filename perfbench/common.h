// Shared pieces of the end-to-end benchmark: the request/reply log the load
// generator records and the replay consumes, reply normalization for the
// output digest, and small order statistics.

#ifndef FAIRHMS_PERFBENCH_COMMON_H_
#define FAIRHMS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fairhms {
namespace perfbench {

/// Which part of a run a logged line belongs to.
enum class Phase { kSetup, kTimed };

/// One request line and the daemon's reply, as the client saw them.
struct LogEntry {
  int client = -1;  ///< -1 = the control connection (register, stats).
  Phase phase = Phase::kSetup;
  std::string request;
  std::string reply;
  bool is_query = false;
  bool is_write = false;
  bool is_stats = false;
  /// Send-to-reply time seen by the client.
  double latency_ms = 0.0;
  /// Reply arrival, in ms since the timed phase started (timed lines only).
  double done_ms = 0.0;
  /// Linearization number from the reply; 0 when the reply carries none
  /// (refused before reaching the service).
  uint64_t seq = 0;
};

/// The reply with every order- or clock-dependent field blanked: the values
/// of "seq", "solve_ms" and "total_ms" become T and the warm-start echo is
/// dropped (a warm solve returns the same bytes as the cold one it replaced).
std::string NormalizeReply(std::string reply);

/// FNV-1a over the given lines, each terminated by a newline.
uint64_t Fnv1a(const std::vector<std::string>& lines);

/// Order statistics over a copy of `v` (0 for an empty sample). Quantile
/// interpolates linearly between the two nearest order statistics.
double Quantile(std::vector<double> v, double q);
/// The Harrell-Davis estimate of quantile q: a Beta((n+1)q, (n+1)(1-q))
/// weighted mean of all order statistics. Where a workload mixes speed
/// classes and the quantile falls between two of them, one order statistic
/// jumps from class to class from run to run; this estimate moves smoothly.
double HarrellDavis(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Value of the first `"key": <number>` in a rendered reply, or `fallback`.
double NumberField(const std::string& reply, const std::string& key,
                   double fallback);

}  // namespace perfbench
}  // namespace fairhms

#endif  // FAIRHMS_PERFBENCH_COMMON_H_
