#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

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

void Digest::AddResult(const SolverResult& result) {
  Add(static_cast<double>(result.solution.rows.size()));
  for (int row : result.solution.rows) Add(row);
  Add(result.solution.mhr);
  Add(static_cast<double>(result.violations));
}

std::string Digest::str() const {
  return StrFormat("%.17g|%.17g", sum_, alt_);
}

void Rep::Add(const std::string& op, double ms) {
  for (auto& [name, total] : ms_) {
    if (name == op) {
      total += ms;
      return;
    }
  }
  ms_.emplace_back(op, ms);
}

Harness::Harness(const cli::Flags& flags, std::string name)
    : flags_(flags), name_(std::move(name)), reps_(flags.GetInt("reps", 3)) {}

void Harness::Refuse(const std::string& message) {
  flags_.Error(Status::InvalidArgument(message));
}

std::vector<std::string> Harness::Strings(const std::string& key,
                                          const std::string& def) {
  std::vector<std::string> out =
      flags_.Has(key) ? flags_.GetList(key) : Split(def, ',');
  if (out.empty()) Refuse(StrFormat("--%s is empty", key.c_str()));
  return out;
}

std::vector<int> Harness::Ints(const std::string& key,
                               const std::string& def) {
  std::vector<int> out;
  for (const std::string& entry : Strings(key, def)) {
    int64_t v = 0;
    if (!ParseInt64(entry, &v) || v < 1 ||
        v > std::numeric_limits<int>::max()) {
      Refuse(StrFormat("--%s: '%s' is not an int >= 1", key.c_str(),
                       entry.c_str()));
      continue;
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

std::vector<double> Harness::Doubles(const std::string& key,
                                     const std::string& def) {
  std::vector<double> out;
  for (const std::string& entry : Strings(key, def)) {
    double v = 0.0;
    if (!ParseDouble(entry, &v) || !(v >= 0.0)) {
      Refuse(StrFormat("--%s: '%s' is not a number >= 0", key.c_str(),
                       entry.c_str()));
      continue;
    }
    out.push_back(v);
  }
  return out;
}

bool Harness::Start(const std::string& config) {
  if (reps_ < 1) {
    Refuse(StrFormat("--reps=%d: need at least one repetition", reps_));
  }
  if (!CheckFlags(flags_, ("bench_" + name_).c_str())) return false;
  std::printf("# bench=%s %s reps=%d simd=%s %s\n", name_.c_str(),
              config.c_str(), reps_,
              simd::DispatchLevelName(simd::ActiveLevel()),
              CapacityProbe().c_str());
  std::printf("op,pass,threads,reps,ms_min,ms_median,ms_p90,checksum\n");
  std::fflush(stdout);
  return true;
}

bool Harness::Pass(const std::string& pass, int threads, const Body& body) {
  std::vector<std::string> ops;         // Rep 1's ops, in order.
  std::vector<std::vector<double>> ms;  // ms[i]: op i's time in each rep.
  std::string checksum;
  for (int r = 0; r < reps_; ++r) {
    Rep rep;
    const StatusOr<std::string> got = body(rep);
    std::vector<std::string> rep_ops;
    for (const auto& [op, t] : rep.ms_) rep_ops.push_back(op);
    std::string problem;
    if (!got.ok()) {
      problem = got.status().ToString();
    } else if (rep_ops.empty() || got->empty()) {
      problem = "timed nothing or returned an empty checksum";
    } else if (r == 0) {
      ops = rep_ops;
      checksum = *got;
      ms.resize(ops.size());
    } else if (rep_ops != ops) {
      problem = "timed other ops than rep 1";
    } else if (*got != checksum) {
      problem = StrFormat("checksum %s differs from rep 1's %s", got->c_str(),
                          checksum.c_str());
    }
    if (!problem.empty()) {
      std::fprintf(stderr, "bench_%s: pass %s@%d rep %d: %s\n",
                   name_.c_str(), pass.c_str(), threads, r + 1,
                   problem.c_str());
      return false;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      ms[i].push_back(rep.ms_[i].second);
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    std::vector<double>& t = ms[i];
    std::sort(t.begin(), t.end());
    const size_t mid = t.size() / 2;
    const double median =
        t.size() % 2 == 1 ? t[mid] : (t[mid - 1] + t[mid]) / 2.0;
    const double p90 = t[(t.size() * 9 + 9) / 10 - 1];  // Nearest rank.
    std::printf("%s,%s,%d,%d,%.3f,%.3f,%.3f,%s\n", ops[i].c_str(),
                pass.c_str(), threads, reps_, t.front(), median, p90,
                checksum.c_str());
  }
  std::fflush(stdout);
  return true;
}

}  // namespace bench
}  // namespace fairhms
