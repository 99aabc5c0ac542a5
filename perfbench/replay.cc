#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "algo/bigreedy.h"
#include "api/catalog.h"
#include "api/protocol.h"
#include "api/service.h"
#include "common/json.h"
#include "common/random.h"
#include "core/net_evaluator.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "fairness/group_bounds.h"
#include "utility/utility_net.h"

namespace fairhms {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The session's warm-start memo for "bigreedy", mirrored so a direct call
/// gets the same hint the served solve got (see SolverSession::Solve).
struct WarmMirror {
  bool valid = false;
  int tau_index = -1;
  int k = 0;
  uint64_t seed = 0;
  int threads = 0;
  uint64_t data_version = 0;
  uint64_t grouping_version = 0;
};

/// Runs the same BiGreedy the served query ran, directly, against the
/// session's cache (its net and evaluator are hits); returns the tau probe
/// count, or -1 when the direct call is not the served solve: its rows
/// differ, or it did (not) warm-start where the served one did not (did).
int DirectBiGreedy(const QueryRequest& q, SolverSession* session,
                   const QueryResponse& served, WarmMirror* memo) {
  const Dataset& data = session->data();
  const Grouping& grouping = session->grouping();
  GroupBounds bounds;
  if (q.bounds == QueryRequest::Bounds::kBalanced) {
    auto b = GroupBounds::Balanced(q.k, grouping.num_groups, q.alpha);
    if (!b.ok()) return -1;
    bounds = *b;
  } else {
    bounds = GroupBounds::Proportional(q.k, session->group_counts(), q.alpha);
  }
  BiGreedyOptions opts;
  opts.seed = q.seed;
  opts.threads = q.threads;
  opts.cache = session->cache();
  const bool k_step = std::abs(memo->k - q.k) <= 1 &&
                      memo->data_version == data.version() &&
                      memo->grouping_version == grouping.version;
  if (q.warm_start && memo->valid && memo->tau_index >= 0 &&
      memo->seed == q.seed && memo->threads == q.threads &&
      (k_step || memo->k == q.k)) {
    opts.warm_tau_index = memo->tau_index;
  }
  BiGreedyRunInfo info;
  auto sol = BiGreedy(data, grouping, bounds, opts, &info);
  if (!sol.ok()) return -1;
  *memo = {true, info.tau_index, q.k, q.seed, q.threads, data.version(),
           grouping.version};
  const bool same = sol->rows == served.rows &&
                    info.warm_start_used == served.warm_start;
  return same ? info.mrgreedy_calls : -1;
}

template <typename Fn>
double MedianTime(Fn fn, int min_reps, int max_reps, double budget_ms,
                  double scale) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          Us(start, Clock::now()) < budget_ms * 1000.0)) {
    samples.push_back(fn() * scale);
  }
  return Median(std::move(samples));
}

KernelProbe ProbeKernels(SolverSession* session, size_t net_size, int k) {
  KernelProbe probe;
  const Dataset& data = session->data();
  const std::vector<int> skyline = session->cache()->Skyline(data);
  const std::vector<int> pool =
      session->cache()->FairPool(data, session->grouping());
  probe.net_size = net_size;
  probe.pool_rows = pool.size();
  probe.skyline_rows = skyline.size();
  Rng rng(7);
  const UtilityNet net = UtilityNet::SampleRandom(data.dim(), net_size, &rng);

  probe.net_build_ms = MedianTime(
      [&] {
        const Clock::time_point t0 = Clock::now();
        NetEvaluator eval(&data, &net, skyline, 1);
        return Us(t0, Clock::now());
      },
      3, 25, 1500.0, 1e-3);
  probe.cache_fill_ms = MedianTime(
      [&] {
        NetEvaluator eval(&data, &net, skyline, 1);
        const Clock::time_point t0 = Clock::now();
        eval.CacheCandidates(pool);
        return Us(t0, Clock::now());
      },
      3, 25, 1500.0, 1e-3);
  // k rows spread evenly over the pool.
  std::vector<int> rows;
  for (int i = 0; i < k && !pool.empty(); ++i) {
    rows.push_back(pool[static_cast<size_t>(i) * pool.size() /
                        static_cast<size_t>(k)]);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  NetEvaluator eval(&data, &net, skyline, 1);
  volatile double sink = 0.0;
  probe.mhr_sweep_us = MedianTime(
      [&] {
        const Clock::time_point t0 = Clock::now();
        sink = sink + eval.Mhr(rows);
        return Us(t0, Clock::now());
      },
      50, 2000, 300.0, 1.0);
  return probe;
}

}  // namespace

ReplayReport Replay(const std::vector<LogEntry>& log,
                    const ReplayOptions& opts,
                    const std::string& probe_tenant, size_t net_size, int k) {
  ReplayReport report;
  DatasetCatalog catalog(DatasetCatalog::Options{opts.cache_budget_bytes});
  {
    Rng rng(opts.default_seed);
    auto raw = MakeSyntheticDataset(opts.default_family, opts.default_n,
                                    opts.default_dim, &rng);
    if (!raw.ok()) return report;
    auto data = NormalizeDatasetByName("minmax", std::move(*raw));
    if (!data.ok()) return report;
    const size_t n = data->size();
    if (!catalog.Register("default", std::move(*data), SingleGroup(n)).ok()) {
      return report;
    }
  }
  ServiceOptions service_opts;
  service_opts.default_seed = opts.default_seed;
  service_opts.envelope.version = 1;
  service_opts.envelope.emit_seq = true;
  ProtocolService service(&catalog, service_opts);

  std::vector<const LogEntry*> order;
  for (const LogEntry& e : log) {
    if (!e.is_stats && e.seq > 0) order.push_back(&e);
  }
  std::sort(order.begin(), order.end(),
            [](const LogEntry* a, const LogEntry* b) {
              return a->seq < b->seq;
            });

  std::map<std::string, WarmMirror> memos;
  size_t direct_calls = 0;
  const Clock::time_point origin = Clock::now();
  for (const LogEntry* e : order) {
    if (Us(origin, Clock::now()) > opts.budget_ms * 1000.0) break;
    const Clock::time_point t0 = Clock::now();
    Request request;
    auto parsed = ParseJson(e->request);
    const Status parse_status = parsed.ok() ? ParseRequest(*parsed, &request)
                                            : parsed.status();
    if (request.id.empty()) request.id = "0";
    const Clock::time_point t1 = Clock::now();
    Response response;
    if (parse_status.ok()) {
      response = service.Execute(request);
    } else {
      response.id = request.id;
      response.error = parse_status;
    }
    const Clock::time_point t2 = Clock::now();
    const std::string out = RenderResponse(response, service_opts.envelope);
    const Clock::time_point t3 = Clock::now();

    ++report.lines;
    if (NormalizeReply(out) != NormalizeReply(e->reply)) {
      if (report.mismatches++ == 0) {
        report.first_mismatch = "live:   " + e->reply + "\nreplay: " + out;
      }
    }

    const bool is_register = request.op == ProtocolOp::kRegister;
    const int root = static_cast<int>(report.spans.size());
    report.spans.push_back({request.id, "request", "request",
                            Us(origin, t0), Us(origin, t3), -1, false});
    report.spans.push_back({request.id, "protocol", "parse", Us(origin, t0),
                            Us(origin, t1), root, false});
    const int exec = static_cast<int>(report.spans.size());
    report.spans.push_back({request.id, is_register ? "data" : "service",
                            is_register ? "register" : "execute",
                            Us(origin, t1), Us(origin, t2), root, false});
    report.spans.push_back({request.id, "protocol", "render", Us(origin, t2),
                            Us(origin, t3), root, false});
    const double exec_ms = Us(t1, t2) / 1000.0;
    double child_ms = 0.0;
    if (request.op == ProtocolOp::kQuery && response.ok) {
      const QueryResponse& q = response.query;
      const int session_span = static_cast<int>(report.spans.size());
      report.spans.push_back({request.id, "session", "solve", Us(origin, t1),
                              Us(origin, t1) + q.total_ms * 1000.0, exec,
                              true});
      report.spans.push_back({request.id, "algo", "solve", Us(origin, t1),
                              Us(origin, t1) + q.solve_ms * 1000.0,
                              session_span, true});
      report.post_solve_ms.push_back(exec_ms - q.total_ms);
      report.self_ms["session"] += q.total_ms - q.solve_ms;
      report.self_ms["algo"] += q.solve_ms;
      child_ms = q.total_ms;
    }
    report.self_ms[is_register ? "data" : "service"] += exec_ms - child_ms;
    report.self_ms["protocol"] += (Us(t0, t1) + Us(t2, t3)) / 1000.0;
    report.parse_us.push_back(Us(t0, t1));
    report.render_us.push_back(Us(t2, t3));
    if (is_register) report.register_ms.push_back(exec_ms);
    report.service_total_ms += Us(t0, t3) / 1000.0;

    if (request.op == ProtocolOp::kQuery && response.ok &&
        request.query.algorithm == "bigreedy" &&
        direct_calls < opts.max_direct_calls) {
      auto session = catalog.Session(request.dataset);
      if (session.ok()) {
        ++direct_calls;
        const int probes =
            DirectBiGreedy(request.query, *session, response.query,
                           &memos[request.dataset]);
        if (probes < 0) {
          ++report.direct_mismatches;
        } else {
          report.tau_probes.push_back(probes);
        }
      }
    }
  }

  report.complete = report.lines == order.size();
  auto session = catalog.Session(probe_tenant);
  if (session.ok() && net_size > 0) {
    report.kernel = ProbeKernels(*session, net_size, k);
  }
  return report;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\": \"%s\", \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d, "
                 "\"reported\": %s}\n",
                 JsonEscape(s.request).c_str(), s.layer, s.name, s.start_us,
                 s.end_us, s.parent, s.reported ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace fairhms
