// The traced half of a run: replays the live run's merged request log in
// `seq` order, single-threaded, through an in-process DatasetCatalog +
// ProtocolService, timing the public call at each layer boundary as a span.
// Also measures the kernel layer directly on the replayed tables.

#ifndef FAIRHMS_PERFBENCH_REPLAY_H_
#define FAIRHMS_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace fairhms {
namespace perfbench {

/// One timed interval of one request. Spans of a request share `request`;
/// `parent` indexes the enclosing span in the same vector (-1 = root).
/// Spans marked `reported` come from the reply's own solve_ms / total_ms
/// (placed at the start of their parent), not from a clock around a call.
struct Span {
  std::string request;
  const char* layer = "";
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  bool reported = false;
};

struct ReplayOptions {
  /// Process-wide cache budget, as the daemon was started with.
  uint64_t cache_budget_bytes = 0;
  /// The daemon's bootstrap dataset, rebuilt so catalog versions line up.
  std::string default_family;
  int64_t default_n = 0;
  int default_dim = 0;
  uint64_t default_seed = 0;
  /// Direct BiGreedy calls made to count tau probes (the first ones in seq
  /// order); bounds the replay's extra work.
  size_t max_direct_calls = 0;
  /// The replay stops past this many ms; the lines replayed so far are a
  /// prefix in seq order, so they still reproduce the live replies.
  double budget_ms = 0.0;
};

struct KernelProbe {
  size_t net_size = 0;
  size_t pool_rows = 0;
  size_t skyline_rows = 0;
  double net_build_ms = 0.0;
  double cache_fill_ms = 0.0;
  double mhr_sweep_us = 0.0;
};

struct ReplayReport {
  /// Every logged line was replayed (false: a prefix, cut by the budget).
  bool complete = false;
  size_t lines = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
  std::vector<Span> spans;
  /// Per line: ParseJson + ParseRequest, and RenderResponse (microseconds).
  std::vector<double> parse_us;
  std::vector<double> render_us;
  /// Per query: ProtocolService::Execute minus the reply's total_ms.
  std::vector<double> post_solve_ms;
  /// Per register op: the Execute call.
  std::vector<double> register_ms;
  /// Sum of every replayed request span (parse + execute + render).
  double service_total_ms = 0.0;
  /// Self time per layer, summed over every request.
  std::map<std::string, double> self_ms;
  /// BiGreedyRunInfo::mrgreedy_calls per direct call, and direct calls
  /// whose rows or warm start differed from the served answer's.
  std::vector<double> tau_probes;
  size_t direct_mismatches = 0;
  KernelProbe kernel;
};

/// Replays `log` and, on the dataset `probe_tenant`, probes the kernels at
/// net size `net_size` with `k`-row sweeps.
ReplayReport Replay(const std::vector<LogEntry>& log,
                    const ReplayOptions& opts,
                    const std::string& probe_tenant, size_t net_size, int k);

/// Writes one JSON object per span to `path`.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
}  // namespace fairhms

#endif  // FAIRHMS_PERFBENCH_REPLAY_H_
