// perfbench: end-to-end benchmark of the fairhms_serve daemon.
//
// One run spawns the daemon, registers the workload's datasets through
// `register` ops, runs the warm-up pass, then drives the workload for the
// timed phase from closed-loop clients (one connection each; a client sends
// its next line only after the previous reply). Every reply is checked.
// The untraced run prints the end-to-end metrics; with --trace=1 the run
// also replays the merged reply log in `seq` order through an in-process
// DatasetCatalog + ProtocolService, timing each layer boundary, probes the
// kernels on the replayed tables, and prints the per-layer metrics.
//
//   perfbench --serve=PATH/fairhms_serve --workload=md_cold --seed=1
//       --seconds=25 --trace=0 [--small]
//
// Scratch files (socket, daemon stderr, spans) go to .bench_run/ under the
// working directory.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit 0 when every check passed, 2 when a check failed, 1 when the run
// could not be made.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/metrics.h"
#include "api/registry.h"
#include "common.h"
#include "common/json.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "daemon.h"
#include "replay.h"
#include "workloads.h"

namespace fairhms {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr uint64_t kCacheBudgetMb = 1024;
/// The daemon's bootstrap "default" dataset (it needs one to start); the
/// replay rebuilds it so catalog versions line up.
constexpr char kBootFamily[] = "independent";
constexpr int kBootN = 64;
constexpr int kBootDim = 2;
constexpr uint64_t kBootSeed = 42;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr char kWorkDir[] = ".bench_run";
constexpr double kReplyTimeoutMs = 120000.0;
/// Wall-clock ceiling of one run, below the 180 s a run may take.
constexpr double kRunLimitMs = 165000.0;
/// Clients keep going past the window until each has its digest lines;
/// a run that has not got them this long after it started fails.
constexpr double kTimedLimitMs = 100000.0;
/// Longest replay of a traced run.
constexpr double kReplayBudgetMs = 40000.0;

struct Options {
  std::string serve;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
};

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    int64_t v = 0;
    if (key == "--serve") {
      opts->serve = value;
    } else if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed" && ParseInt64(value, &v) && v >= 0) {
      opts->seed = static_cast<uint64_t>(v);
    } else if (key == "--seconds" && ParseDouble(value, &opts->seconds) &&
               opts->seconds > 0) {
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      opts->trace = value == "1";
    } else if (key == "--small") {
      opts->small = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts->serve.empty() || opts->workload.empty()) {
    std::fprintf(stderr, "perfbench: --serve and --workload are required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Host record.

struct HostProbe {
  /// n * t1 / tn per thread count n: how many cores' worth of a fixed
  /// integer spin the host really delivers in parallel.
  std::vector<double> capacity;
  /// Virtual CPUs left idle for a while can take a second or more of load
  /// to come back, so the probe first spins on every CPU until the 4-thread
  /// capacity holds for two rounds in a row (at most ~5 s).
  double wake_ms = 0.0;
  /// Absolute speeds, so a host slower than usual shows: one spin
  /// iteration, and first-touch / re-read bandwidth over 128 MiB.
  double spin_ns = 0.0;
  double touch_gbps = 0.0;
  double read_gbps = 0.0;
};

HostProbe ProbeHost(const std::vector<int>& thread_counts) {
  HostProbe probe;
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
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] { sink += spin(iters); });
    }
    for (std::thread& t : pool) t.join();
    return MsSince(t0);
  };
  // Calibrate to about 40 ms of single-thread work.
  uint64_t iters = uint64_t{1} << 20;
  double ms = wall_ms(1, iters);
  while (ms < 10.0) {
    iters *= 4;
    ms = wall_ms(1, iters);
  }
  iters = static_cast<uint64_t>(static_cast<double>(iters) * 40.0 / ms);
  const Clock::time_point wake_start = Clock::now();
  const int cpus = std::clamp(
      static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)), 1, 4);
  for (int good = 0; good < 2 && MsSince(wake_start) < 5000.0;) {
    const double one = wall_ms(1, iters);
    const double all = wall_ms(cpus, iters);
    good = cpus * one / all >= 0.8 * cpus ? good + 1 : 0;
  }
  probe.wake_ms = MsSince(wake_start);
  const double t1 = std::min(wall_ms(1, iters), wall_ms(1, iters));
  probe.spin_ns = t1 * 1e6 / static_cast<double>(iters);
  for (const int n : thread_counts) {
    const double tn = std::min(wall_ms(n, iters), wall_ms(n, iters));
    probe.capacity.push_back(n * t1 / tn);
  }

  constexpr size_t kWords = (size_t{128} << 20) / sizeof(uint64_t);
  const double gb = static_cast<double>(kWords * sizeof(uint64_t)) / 1e9;
  Clock::time_point t0 = Clock::now();
  std::vector<uint64_t> buffer(kWords, 1);
  probe.touch_gbps = gb / (MsSince(t0) / 1000.0);
  for (int pass = 0; pass < 3; ++pass) {
    t0 = Clock::now();
    uint64_t sum = 0;
    for (const uint64_t w : buffer) sum += w;
    sink += sum;
    probe.read_gbps = std::max(probe.read_gbps, gb / (MsSince(t0) / 1000.0));
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Reply parsing and checks.

struct StatsView {
  bool ok = false;
  JsonValue json;
  const JsonValue* Op(const std::string& name) const {
    const JsonValue* ops = json.Find("ops");
    if (ops == nullptr) return nullptr;
    for (const JsonValue& op : ops->items()) {
      const JsonValue* n = op.Find("op");
      if (n != nullptr && n->string_value() == name) return &op;
    }
    return nullptr;
  }
  double OpField(const std::string& op, const std::string& field) const {
    const JsonValue* o = Op(op);
    const JsonValue* f = o == nullptr ? nullptr : o->Find(field);
    return f == nullptr ? 0.0 : f->number_value();
  }
  /// Sums a per-class cache counter over the named datasets.
  double CacheCounter(const std::vector<std::string>& names,
                      const std::string& cls, const std::string& field) const {
    const JsonValue* datasets = json.Find("datasets");
    if (datasets == nullptr) return 0.0;
    double sum = 0.0;
    for (const JsonValue& ds : datasets->items()) {
      const JsonValue* name = ds.Find("name");
      if (name == nullptr ||
          std::find(names.begin(), names.end(), name->string_value()) ==
              names.end()) {
        continue;
      }
      const JsonValue* classes = ds.Find("cache_classes");
      const JsonValue* c = classes == nullptr ? nullptr : classes->Find(cls);
      const JsonValue* f = c == nullptr ? nullptr : c->Find(field);
      if (f != nullptr) sum += f->number_value();
    }
    return sum;
  }
  double Cache(const std::string& field) const {
    const JsonValue* cache = json.Find("cache");
    const JsonValue* f = cache == nullptr ? nullptr : cache->Find(field);
    return f == nullptr ? 0.0 : f->number_value();
  }
  /// Sums `field` ("count" or "total_ms") over every op.
  double AllOps(const std::string& field) const {
    const JsonValue* ops = json.Find("ops");
    double sum = 0.0;
    if (ops == nullptr) return sum;
    for (const JsonValue& op : ops->items()) {
      const JsonValue* t = op.Find(field);
      if (t != nullptr) sum += t->number_value();
    }
    return sum;
  }
};

StatsView ParseStats(const std::string& reply) {
  StatsView view;
  auto parsed = ParseJson(reply);
  if (parsed.ok()) {
    view.json = std::move(*parsed);
    const JsonValue* ok = view.json.Find("ok");
    view.ok = ok != nullptr && ok->bool_value();
  }
  return view;
}

/// Checks one reply; returns "" when it passes, else the reason.
std::string CheckReply(const LogEntry& e, double* hr, std::string* algorithm,
                       double* solve_ms, double* total_ms, bool* warm) {
  auto parsed = ParseJson(e.reply);
  if (!parsed.ok()) return "reply is not JSON";
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return "reply not ok";
  }
  if (!e.is_query) return "";
  const JsonValue* ratio = parsed->Find("happiness_ratio");
  const JsonValue* algo = parsed->Find("algorithm");
  const JsonValue* k = parsed->Find("k");
  const JsonValue* rows = parsed->Find("rows");
  const JsonValue* size = parsed->Find("solution_size");
  const JsonValue* violations = parsed->Find("violations");
  if (ratio == nullptr || algo == nullptr || k == nullptr || rows == nullptr ||
      size == nullptr || violations == nullptr) {
    return "query reply misses a field";
  }
  *hr = ratio->number_value();
  *algorithm = algo->string_value();
  *solve_ms = NumberField(e.reply, "solve_ms", 0.0);
  *total_ms = NumberField(e.reply, "total_ms", 0.0);
  *warm = e.reply.find("\"warm_start\": true") != std::string::npos;
  if (!(*hr > 0.0 && *hr <= 1.0)) return "happiness_ratio outside (0, 1]";
  const AlgorithmInfo* info =
      AlgorithmRegistry::Instance().Find(algo->string_value());
  if (info == nullptr) return "unknown algorithm in reply";
  if (info->caps.fairness_aware) {
    const double want = k->number_value();
    if (violations->number_value() != 0.0) return "fair answer violates";
    if (size->number_value() != want ||
        static_cast<double>(rows->items().size()) != want) {
      return "fair answer does not have exactly k rows";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// One run.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Run {
 public:
  explicit Run(Options opts) : opts_(std::move(opts)) {}

  int Execute() {
    run_start_ = Clock::now();
    auto spec = MakeWorkload(opts_.workload, opts_.small);
    if (!spec.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    spec_ = std::move(*spec);
    for (const TenantSpec& t : spec_.tenants) tenant_names_.push_back(t.name);

    socket_ = StrFormat("%s/serve-%d.sock", kWorkDir,
                        static_cast<int>(::getpid()));
    daemon_argv_ = {
        opts_.serve,
        "--unix=" + socket_,
        "--workers=4",
        StrFormat("--global_cache_budget_mb=%llu",
                  static_cast<unsigned long long>(kCacheBudgetMb)),
        "--simd=auto",
        StrFormat("--synthetic=%s", kBootFamily),
        StrFormat("--n=%d", kBootN),
        StrFormat("--dim=%d", kBootDim),
        "--groups=1",
        StrFormat("--seed=%llu", static_cast<unsigned long long>(kBootSeed))};
    host_ = ProbeHost({1, 2, 4});

    for (int s = 0; s < kSetups; ++s) {
      if (!Setup(s + 1 == kSetups)) return 1;
    }
    const bool timed = Timed();
    ::unlink(socket_.c_str());
    if (!timed) return 1;
    Check();
    if (opts_.trace) Trace();
    Report();
    return correct_ ? 0 : 2;
  }

 private:
  /// Spawn to ready, registration and warm-up; keeps the daemon and the
  /// client connections when `keep` is set.
  bool Setup(bool keep) {
    scripts_.clear();
    for (int c = 0; c < spec_.clients; ++c) {
      scripts_.push_back(std::make_unique<ClientScript>(spec_, c, opts_.seed));
    }
    daemon_ = std::make_unique<Daemon>();
    const Clock::time_point t0 = Clock::now();
    const std::string stderr_path =
        StrFormat("%s/serve-%d.err", kWorkDir, static_cast<int>(::getpid()));
    if (Status st = daemon_->Start(daemon_argv_, stderr_path, 30000.0);
        !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return false;
    }
    if (Status st = control_.Connect(socket_); !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return false;
    }
    log_.clear();
    for (const TenantSpec& t : spec_.tenants) {
      LogEntry e;
      e.request = RegisterLine(t);
      const Clock::time_point r0 = Clock::now();
      if (Status st = control_.RoundTrip(e.request, &e.reply, kReplyTimeoutMs);
          !st.ok()) {
        std::fprintf(stderr, "perfbench: register: %s\n",
                     st.ToString().c_str());
        return false;
      }
      e.latency_ms = MsSince(r0);
      log_.push_back(std::move(e));
    }
    conns_.clear();
    for (int c = 0; c < spec_.clients; ++c) {
      conns_.push_back(std::make_unique<Connection>());
      if (Status st = conns_.back()->Connect(socket_); !st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return false;
      }
    }
    // Warm-up: every client runs its lines on its own connection.
    std::vector<std::vector<LogEntry>> warm(static_cast<size_t>(spec_.clients));
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < spec_.clients; ++c) {
      threads.emplace_back([&, c] {
        for (const std::string& line : scripts_[static_cast<size_t>(c)]
                                           ->WarmupLines()) {
          LogEntry e;
          e.client = c;
          e.is_query = true;
          e.request = line;
          const Clock::time_point r0 = Clock::now();
          if (!conns_[static_cast<size_t>(c)]
                   ->RoundTrip(line, &e.reply, kReplyTimeoutMs)
                   .ok()) {
            failed = true;
            return;
          }
          e.latency_ms = MsSince(r0);
          warm[static_cast<size_t>(c)].push_back(std::move(e));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failed) {
      std::fprintf(stderr, "perfbench: warm-up lost its connection\n");
      return false;
    }
    setup_s_.push_back(MsSince(t0) / 1000.0);
    for (auto& lines : warm) {
      for (LogEntry& e : lines) log_.push_back(std::move(e));
    }
    for (const LogEntry& e : log_) {
      if (e.reply.find("\"ok\": true") == std::string::npos) {
        ++setup_failures_;
      }
    }
    if (!keep) {
      conns_.clear();
      control_.Close();
      daemon_->Stop();
      daemon_.reset();
    }
    return true;
  }

  bool Timed() {
    stats_before_ = Stats();
    cpu0_ms_ = ProcessCpuMs(daemon_->pid());
    const Clock::time_point t0 = Clock::now();
    const double window_ms = opts_.seconds * 1000.0;
    std::vector<std::vector<LogEntry>> timed(
        static_cast<size_t>(spec_.clients));
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < spec_.clients; ++c) {
      threads.emplace_back([&, c] {
        ClientScript* script = scripts_[static_cast<size_t>(c)].get();
        Connection* conn = conns_[static_cast<size_t>(c)].get();
        std::vector<LogEntry>& out = timed[static_cast<size_t>(c)];
        while (!failed && (MsSince(t0) < window_ms ||
                           out.size() < spec_.digest_lines)) {
          if (MsSince(run_start_) > kTimedLimitMs &&
              MsSince(t0) > window_ms) {
            failed = true;  // Too slow to reach the digest length.
            return;
          }
          LogEntry e;
          e.client = c;
          e.phase = Phase::kTimed;
          e.request = script->Next();
          e.is_write = script->last_is_write();
          e.is_query = !e.is_write;
          const Clock::time_point r0 = Clock::now();
          if (!conn->RoundTrip(e.request, &e.reply, kReplyTimeoutMs).ok()) {
            failed = true;
            return;
          }
          e.latency_ms = MsSince(r0);
          e.done_ms = MsSince(t0);
          script->Observe(e.reply);
          out.push_back(std::move(e));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    cpu1_ms_ = ProcessCpuMs(daemon_->pid());
    if (failed) {
      std::fprintf(stderr,
                   "perfbench: a client lost its connection or could not "
                   "finish its digest lines\n");
      return false;
    }
    stats_after_ = Stats();
    rss_mb_ = ProcessPeakRssMb(daemon_->pid());
    conns_.clear();
    control_.Close();
    drain_report_ = daemon_->Stop();
    daemon_.reset();
    for (auto& lines : timed) {
      for (LogEntry& e : lines) log_.push_back(std::move(e));
    }
    for (LogEntry& e : log_) e.seq = static_cast<uint64_t>(
                                 NumberField(e.reply, "seq", 0.0));
    return stats_before_.ok && stats_after_.ok;
  }

  StatsView Stats() {
    LogEntry e;
    e.request = "{\"op\": \"stats\", \"id\": \"stats\"}";
    e.is_stats = true;
    if (!control_.RoundTrip(e.request, &e.reply, kReplyTimeoutMs).ok()) {
      return StatsView();
    }
    StatsView view = ParseStats(e.reply);
    log_.push_back(std::move(e));
    return view;
  }

  void Check() {
    std::vector<std::string> digest_lines;
    std::vector<size_t> per_client(static_cast<size_t>(spec_.clients), 0);
    for (const LogEntry& e : log_) {
      if (e.is_stats) continue;
      double hr = 0.0, solve = 0.0, total = 0.0;
      std::string algorithm;
      bool warm = false;
      const std::string why = CheckReply(e, &hr, &algorithm, &solve, &total,
                                         &warm);
      if (e.is_query && why.empty()) {
        served_queries_.push_back(
            {e.phase == Phase::kTimed ? e.done_ms : -1.0, e.latency_ms});
      }
      if (e.phase == Phase::kTimed) {
        ++attempted_;
        if (!why.empty()) ++failed_;
        if (e.done_ms <= opts_.seconds * 1000.0) {
          ++done_in_window_;
          last_done_ms_ = std::max(last_done_ms_, e.done_ms);
        }
        if (e.is_query && why.empty()) {
          query_ms_.push_back(e.latency_ms);
          hr_.push_back(hr);
          solve_ms_[algorithm].push_back(solve);
          facade_ms_.push_back(total - solve);
          if (algorithm == "bigreedy") {
            ++bigreedy_;
            if (warm) ++warm_;
          }
          query_ks_.push_back(NumberField(e.request, "k", 0.0));
          query_algos_.push_back(algorithm);
          by_shape_[StrFormat("%s/k=%d", algorithm.c_str(),
                              static_cast<int>(query_ks_.back()))]
              .push_back(e.latency_ms);
        }
        if (e.is_write && why.empty()) write_ms_.push_back(e.latency_ms);
        response_bytes_.push_back(static_cast<double>(e.reply.size()));
      }
      if (!why.empty()) {
        correct_ = false;
        if (first_failure_.empty()) {
          first_failure_ = why + ": " + e.request + " -> " + e.reply;
        }
      }
      const bool in_digest =
          e.phase == Phase::kSetup ||
          per_client[static_cast<size_t>(e.client)]++ < spec_.digest_lines;
      if (in_digest) digest_lines.push_back(NormalizeReply(e.reply));
    }
    if (setup_failures_ > 0) correct_ = false;
    digest_ = Fnv1a(digest_lines);
    digest_count_ = digest_lines.size();
  }

  void Trace() {
    ReplayOptions ro;
    ro.cache_budget_bytes = kCacheBudgetMb * 1024 * 1024;
    ro.default_family = kBootFamily;
    ro.default_n = kBootN;
    ro.default_dim = kBootDim;
    ro.default_seed = kBootSeed;
    // A replayed prefix in seq order is still exact, so the replay stops at
    // its budget rather than stretching the run.
    ro.max_direct_calls = 12;
    ro.budget_ms = std::clamp(kRunLimitMs - 20000.0 - MsSince(run_start_),
                              5000.0, kReplayBudgetMs);
    // Kernel probes at the workload's median net size: 10 * k * d, the
    // BiGreedy default, over the net-sampling queries.
    std::vector<double> ks;
    for (size_t i = 0; i < query_ks_.size(); ++i) {
      if (query_algos_[i].rfind("bigreedy", 0) == 0) ks.push_back(query_ks_[i]);
    }
    if (ks.empty()) ks = query_ks_;
    const int k = static_cast<int>(Median(ks));
    const size_t net_size =
        static_cast<size_t>(10 * k * spec_.tenants[0].dim);
    replay_ = Replay(log_, ro, spec_.tenants[0].name, net_size, std::max(k, 1));
    if (replay_.mismatches > 0 || replay_.direct_mismatches > 0) {
      correct_ = false;
      if (first_failure_.empty()) {
        first_failure_ = replay_.mismatches > 0
                             ? "replay differs from the live run:\n" +
                                   replay_.first_mismatch
                             : "direct BiGreedy differs from the served "
                               "solve (rows or warm start)";
      }
    }
    const std::string path = StrFormat(
        "%s/spans-%s-%llu.jsonl", kWorkDir,
        opts_.workload.c_str(), static_cast<unsigned long long>(opts_.seed));
    if (WriteSpans(replay_.spans, path)) spans_path_ = path;
  }

  static double Delta(const StatsView& a, const StatsView& b,
                      const std::vector<std::string>& names,
                      const std::string& cls, const std::string& field) {
    return b.CacheCounter(names, cls, field) -
           a.CacheCounter(names, cls, field);
  }

  double HitRatio(const std::string& cls) const {
    const double hits =
        Delta(stats_before_, stats_after_, tenant_names_, cls, "hits");
    const double misses =
        Delta(stats_before_, stats_after_, tenant_names_, cls, "misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }

  std::vector<Metric> EndToEnd() const {
    const double cpu_ms = cpu1_ms_ - cpu0_ms_;
    return {
        {"throughput_qps",
         last_done_ms_ > 0 ? done_in_window_ * 1000.0 / last_done_ms_ : 0.0,
         "1/s"},
        {"latency_p50_ms", HarrellDavis(query_ms_, 0.5), "ms"},
        {"latency_p90_ms", HarrellDavis(query_ms_, 0.9), "ms"},
        {"hr_mean", Mean(hr_), "ratio"},
        {"setup_s", Median(setup_s_), "s"},
        {"rss_peak_mb", rss_mb_, "MB"},
        {"cpu_ms_per_op", attempted_ > 0 ? cpu_ms / attempted_ : 0.0, "ms"},
    };
  }

  /// The client's query p50 over the queries the daemon's latency window
  /// still holds (its most recent OpMetrics::kLatencyWindow), taken with
  /// the daemon's nearest-rank rule, so both medians describe the same
  /// requests the same way.
  double ClientWindowP50() const {
    std::vector<std::pair<double, double>> q = served_queries_;
    std::stable_sort(q.begin(), q.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    const size_t window = OpMetrics::kLatencyWindow;
    std::vector<double> latencies;
    for (size_t i = q.size() > window ? q.size() - window : 0; i < q.size();
         ++i) {
      latencies.push_back(q[i].second);
    }
    if (latencies.empty()) return 0.0;
    std::sort(latencies.begin(), latencies.end());
    return latencies[static_cast<size_t>(
        0.5 * static_cast<double>(latencies.size() - 1) + 0.5)];
  }

  std::vector<Metric> PerLayer() const {
    const StatsView& a = stats_before_;
    const StatsView& b = stats_after_;
    auto p50 = [&](const std::string& algorithm) {
      auto it = solve_ms_.find(algorithm);
      return it == solve_ms_.end() ? 0.0 : Median(it->second);
    };
    const double queries = static_cast<double>(query_ms_.size());
    const double evaluator_builds =
        Delta(a, b, tenant_names_, "evaluators", "misses");
    const double service_ms = b.AllOps("total_ms") - a.AllOps("total_ms");
    const double inserts = b.OpField("insert", "count");
    const double deletes = b.OpField("delete", "count");
    const double service_write_p50 =
        inserts + deletes > 0
            ? (b.OpField("insert", "p50_ms") * inserts +
               b.OpField("delete", "p50_ms") * deletes) /
                  (inserts + deletes)
            : 0.0;
    const KernelProbe& kp = replay_.kernel;
    return {
        {"server.wait_p50_ms",
         ClientWindowP50() - b.OpField("query", "p50_ms"), "ms"},
        {"server.refused", static_cast<double>(DrainCount("rejected")),
         "count"},
        {"server.error_rate",
         attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0,
         "ratio"},
        {"client.write_p50_ms", Quantile(write_ms_, 0.5), "ms"},
        {"protocol.parse_us", Median(replay_.parse_us), "us"},
        {"protocol.render_us", Median(replay_.render_us), "us"},
        {"protocol.response_bytes", Mean(response_bytes_), "bytes"},
        {"service.query_p50_ms", b.OpField("query", "p50_ms"), "ms"},
        {"service.query_p99_ms", b.OpField("query", "p99_ms"), "ms"},
        {"service.write_p50_ms", service_write_p50, "ms"},
        {"service.post_solve_ms", Median(replay_.post_solve_ms), "ms"},
        {"session.facade_ms", Median(facade_ms_), "ms"},
        {"session.warm_start_ratio",
         bigreedy_ > 0 ? static_cast<double>(warm_) / bigreedy_ : 0.0,
         "ratio"},
        {"algo.bigreedy.solve_ms", p50("bigreedy"), "ms"},
        {"algo.bigreedy_plus.solve_ms", p50("bigreedy+"), "ms"},
        {"algo.intcov.solve_ms", p50("intcov"), "ms"},
        {"algo.g_greedy.solve_ms", p50("g_greedy"), "ms"},
        {"algo.bigreedy.tau_probes", Mean(replay_.tau_probes), "count"},
        {"cache.nets.hit_ratio", HitRatio("nets"), "ratio"},
        {"cache.evaluators.hit_ratio", HitRatio("evaluators"), "ratio"},
        {"cache.skylines.hit_ratio", HitRatio("skylines"), "ratio"},
        {"cache.pools.hit_ratio", HitRatio("pools"), "ratio"},
        {"cache.groups.hit_ratio", HitRatio("groups"), "ratio"},
        {"cache.evaluator_builds_per_query",
         queries > 0 ? evaluator_builds / queries : 0.0, "count"},
        {"cache.bytes_mb", b.Cache("total_bytes") / (1024.0 * 1024.0), "MB"},
        {"cache.evictions", b.Cache("evictions") - a.Cache("evictions"),
         "count"},
        {"kernel.net_build_ms", kp.net_build_ms, "ms"},
        {"kernel.cache_fill_ms", kp.cache_fill_ms, "ms"},
        {"kernel.mhr_sweep_us", kp.mhr_sweep_us, "us"},
        {"kernel.service_share",
         service_ms > 0
             ? evaluator_builds * (kp.net_build_ms + kp.cache_fill_ms) /
                   service_ms
             : 0.0,
         "ratio"},
        {"data.register_ms", Mean(replay_.register_ms), "ms"},
    };
  }

  /// A counter from the daemon's drain report ("rejected 0").
  uint64_t DrainCount(const std::string& word) const {
    const size_t pos = drain_report_.find(word + " ");
    if (pos == std::string::npos) return 0;
    return std::strtoull(drain_report_.c_str() + pos + word.size() + 1,
                         nullptr, 10);
  }

  void Report() {
    const char* simd_level = simd::DispatchLevelName(simd::ActiveLevel());
    std::printf(
        "# host: nproc=%ld simd=%s capacity x1=%.2f x2=%.2f x4=%.2f (after "
        "%.0f ms of wake-up spin); spin %.3f ns/iter, memory touch %.2f "
        "GB/s, read %.2f GB/s\n",
        ::sysconf(_SC_NPROCESSORS_ONLN), simd_level, host_.capacity[0],
        host_.capacity[1], host_.capacity[2], host_.wake_ms, host_.spin_ns,
        host_.touch_gbps, host_.read_gbps);
    std::string flags;
    for (size_t i = 1; i < daemon_argv_.size(); ++i) {
      flags += (i > 1 ? " " : "") + daemon_argv_[i];
    }
    std::printf("# daemon: fairhms_serve %s\n", flags.c_str());
    std::printf("# workload: %s seed=%llu clients=%d%s\n", spec_.name.c_str(),
                static_cast<unsigned long long>(opts_.seed), spec_.clients,
                opts_.small ? " (small)" : "");
    for (const TenantSpec& t : spec_.tenants) {
      std::printf("#   dataset %s: %s n=%lld d=%d groups=%d seed=%llu\n",
                  t.name.c_str(), t.family.c_str(),
                  static_cast<long long>(t.n), t.dim, t.groups,
                  static_cast<unsigned long long>(t.seed));
    }
    std::string setups;
    for (const double s : setup_s_) setups += StrFormat(" %.3f", s);
    std::printf("# setup_s per set-up:%s\n", setups.c_str());
    const double p90 = HarrellDavis(query_ms_, 0.9);
    const size_t above_p90 = static_cast<size_t>(
        std::count_if(query_ms_.begin(), query_ms_.end(),
                      [p90](double v) { return v > p90; }));
    std::printf(
        "# timed phase: %.1f s, %zu lines attempted, %zu failed (daemon "
        "refused %llu), %zu queries (%zu above p90), %zu writes\n",
        opts_.seconds, attempted_, failed_,
        static_cast<unsigned long long>(DrainCount("rejected")),
        query_ms_.size(), above_p90, write_ms_.size());
    std::string shapes;
    for (const auto& [shape, ms] : by_shape_) {
      shapes += StrFormat(" %s:%zu@%.3g", shape.c_str(), ms.size(),
                          Median(ms));
    }
    std::printf("# query p50 ms by shape (algorithm/k:count@p50):%s\n",
                shapes.c_str());
    std::printf("# error_rate = %.6f ratio\n",
                attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                               : 0.0);
    std::printf("# write_p50_ms = %.4f ms (%zu writes)\n",
                Quantile(write_ms_, 0.5), write_ms_.size());
    const std::vector<Metric> e2e = EndToEnd();
    for (const Metric& m : e2e) {
      std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# digest %s seed=%llu: %016llx over %zu replies\n",
                spec_.name.c_str(), static_cast<unsigned long long>(opts_.seed),
                static_cast<unsigned long long>(digest_), digest_count_);
    std::vector<Metric> layers;
    if (opts_.trace) {
      layers = PerLayer();
      std::printf(
          "# replay: %zu lines%s, %zu mismatches, %zu direct BiGreedy "
          "mismatches\n",
          replay_.lines, replay_.complete ? "" : " (budget hit: prefix only)",
          replay_.mismatches, replay_.direct_mismatches);
      // The gap between the two is what concurrency (and tracing) costs.
      const double live_ms = stats_after_.AllOps("total_ms");
      const double live_lines = stats_after_.AllOps("count");
      std::printf(
          "# service time: live stats total %.1f ms over %.0f lines (%.3f "
          "ms/line), replay summed %.1f ms over %zu lines (%.3f ms/line)\n",
          live_ms, live_lines, live_lines > 0 ? live_ms / live_lines : 0.0,
          replay_.service_total_ms, replay_.lines,
          replay_.lines > 0 ? replay_.service_total_ms / replay_.lines : 0.0);
      for (const auto& [layer, ms] : replay_.self_ms) {
        std::printf("#   self %-9s %10.1f ms (%.1f%%)\n", layer.c_str(), ms,
                    replay_.service_total_ms > 0
                        ? 100.0 * ms / replay_.service_total_ms
                        : 0.0);
      }
      std::printf("# kernel probe: net=%zu pool=%zu skyline=%zu\n",
                  replay_.kernel.net_size, replay_.kernel.pool_rows,
                  replay_.kernel.skyline_rows);
      if (!spans_path_.empty()) {
        std::printf("# spans: %s (%zu)\n", spans_path_.c_str(),
                    replay_.spans.size());
      }
      for (const Metric& m : layers) {
        std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    if (!first_failure_.empty()) {
      std::printf("# CHECK FAILED: %s\n", first_failure_.c_str());
    }
    JsonWriter out;
    out.BeginObject().Key("correct").Bool(correct_);
    out.Key("attempted").UInt(attempted_).Key("failed").UInt(failed_);
    out.Key("metrics").BeginObject();
    for (const Metric& m : opts_.trace ? layers : e2e) {
      out.Key(m.name).BeginObject().Key("value").Double(m.value);
      out.Key("unit").String(m.unit).EndObject();
    }
    out.EndObject().EndObject();
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

  Options opts_;
  Clock::time_point run_start_;
  WorkloadSpec spec_;
  std::vector<std::string> tenant_names_;
  std::string socket_;
  std::vector<std::string> daemon_argv_;
  HostProbe host_;

  std::unique_ptr<Daemon> daemon_;
  Connection control_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<ClientScript>> scripts_;
  std::vector<LogEntry> log_;

  std::vector<double> setup_s_;
  size_t setup_failures_ = 0;
  StatsView stats_before_;
  StatsView stats_after_;
  double cpu0_ms_ = 0.0;
  double cpu1_ms_ = 0.0;
  double rss_mb_ = 0.0;
  std::string drain_report_;

  bool correct_ = true;
  std::string first_failure_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t done_in_window_ = 0;
  double last_done_ms_ = 0.0;
  std::vector<double> query_ms_;
  /// (completion ms, latency ms) of every answered query the final daemon
  /// served, warm-up included (completion -1).
  std::vector<std::pair<double, double>> served_queries_;
  std::vector<double> write_ms_;
  std::vector<double> hr_;
  std::vector<double> facade_ms_;
  std::vector<double> response_bytes_;
  std::vector<double> query_ks_;
  std::vector<std::string> query_algos_;
  std::map<std::string, std::vector<double>> solve_ms_;
  /// Client latency per algorithm and k.
  std::map<std::string, std::vector<double>> by_shape_;
  size_t bigreedy_ = 0;
  size_t warm_ = 0;
  uint64_t digest_ = 0;
  size_t digest_count_ = 0;

  ReplayReport replay_;
  std::string spans_path_;
};

}  // namespace
}  // namespace perfbench
}  // namespace fairhms

int main(int argc, char** argv) {
  fairhms::perfbench::Options opts;
  if (!fairhms::perfbench::ParseOptions(argc, argv, &opts)) return 1;
  return fairhms::perfbench::Run(std::move(opts)).Execute();
}
