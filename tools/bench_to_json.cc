// bench_to_json: turns bench_parallel_eval's CSV into the speedup report
// BENCH_parallel_eval.json tracked by CI, and gates on two regressions:
//
//   * determinism — every op's checksum must be byte-identical across
//     thread counts (exit 2 otherwise);
//   * throughput — each --min_speedup=op:threads:factor entry must hold
//     against the op's 1-thread baseline (exit 1 otherwise).
//
// A row may carry a fifth column, the median over the bench's repetitions
// (`ms` is their minimum); it is echoed as "ms_median" and not gated.
//
//   bench_parallel_eval --threads=1,2,4 |
//       bench_to_json --out=BENCH_parallel_eval.json
//                     --min_speedup=mhr_sweep:4:1.5

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_util.h"
#include "common/json.h"
#include "common/string_util.h"

namespace fairhms {
namespace {

struct Entry {
  int threads = 0;
  double ms = 0.0;
  std::string checksum;
  double ms_median = -1.0;  ///< Optional fifth column; < 0 when absent.
};

struct OpSeries {
  std::string op;
  std::vector<Entry> entries;  ///< Input order (thread grid order).
};

int Fail(const char* fmt, const std::string& arg) {
  std::fprintf(stderr, "bench_to_json: ");
  std::fprintf(stderr, fmt, arg.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(
        "bench_to_json --in=FILE|- --out=FILE "
        "[--min_speedup=op:threads:factor,...]\n"
        "Reads bench CSV (op,threads,ms,checksum[,ms_median]), writes a\n"
        "JSON speedup report.\n"
        "Exits 1 on an unmet --min_speedup, 2 on a checksum mismatch\n"
        "(determinism regression across thread counts).\n",
        stdout);
    return 0;
  }

  const std::string in_path = flags.GetString("in", "-");
  const std::string out_path = flags.GetString("out", "BENCH_parallel_eval.json");

  std::ifstream file;
  if (in_path != "-") {
    file.open(in_path);
    if (!file) return Fail("cannot open --in=%s", in_path);
  }
  std::istream& in = in_path == "-" ? std::cin : file;

  std::map<std::string, std::string> config;
  std::vector<OpSeries> series;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      // "# bench=parallel_eval n=10000 dim=6 ..." -> config map.
      for (const std::string& kv : Split(trimmed.substr(1), ' ')) {
        const auto parts = Split(kv, '=');
        if (parts.size() == 2 && !parts[0].empty()) {
          config[parts[0]] = parts[1];
        }
      }
      continue;
    }
    const auto cells = Split(trimmed, ',');
    if (cells.size() != 4 && cells.size() != 5) {
      return Fail("malformed CSV line: %s", line);
    }
    if (cells[0] == "op") continue;  // Header.
    Entry e;
    int64_t threads = 0;
    if (!ParseInt64(cells[1], &threads) || threads < 1 ||
        !ParseDouble(cells[2], &e.ms)) {
      return Fail("malformed CSV line: %s", line);
    }
    e.threads = static_cast<int>(threads);
    e.checksum = cells[3];
    if (cells.size() == 5 && !ParseDouble(cells[4], &e.ms_median)) {
      return Fail("malformed CSV line: %s", line);
    }
    OpSeries* s = nullptr;
    for (OpSeries& existing : series) {
      if (existing.op == cells[0]) s = &existing;
    }
    if (s == nullptr) {
      series.push_back({cells[0], {}});
      s = &series.back();
    }
    s->entries.push_back(std::move(e));
  }
  if (series.empty()) return Fail("no data rows in %s", in_path);

  // Baselines and the determinism gate (consistency tracked per op).
  std::map<std::string, double> baseline_ms;
  std::map<std::string, bool> op_consistent;
  bool checksums_ok = true;
  for (const OpSeries& s : series) {
    op_consistent[s.op] = true;
    for (const Entry& e : s.entries) {
      if (e.threads == 1) baseline_ms[s.op] = e.ms;
      if (e.checksum != s.entries.front().checksum) {
        std::fprintf(stderr,
                     "bench_to_json: DETERMINISM REGRESSION: op %s checksum "
                     "at %d threads (%s) differs from %d threads (%s)\n",
                     s.op.c_str(), e.threads, e.checksum.c_str(),
                     s.entries.front().threads,
                     s.entries.front().checksum.c_str());
        op_consistent[s.op] = false;
        checksums_ok = false;
      }
    }
    if (baseline_ms.find(s.op) == baseline_ms.end()) {
      return Fail("op %s has no 1-thread baseline row", s.op);
    }
  }

  auto speedup_of = [&](const OpSeries& s, const Entry& e) {
    return e.ms > 0.0 ? baseline_ms[s.op] / e.ms : 0.0;
  };

  // The bench names itself via the "# bench=..." config key; default kept
  // for CSVs from older harness versions.
  const std::string bench_name =
      config.count("bench") ? config.at("bench") : "parallel_eval";
  std::ostringstream json;
  json << "{\n  \"bench\": \"" << JsonEscape(bench_name)
       << "\",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    json << (first ? "" : ", ") << '"' << JsonEscape(key) << "\": \""
         << JsonEscape(value) << '"';
    first = false;
  }
  json << "},\n  \"ops\": [\n";
  for (size_t si = 0; si < series.size(); ++si) {
    const OpSeries& s = series[si];
    json << "    {\"op\": \"" << JsonEscape(s.op)
         << "\", \"checksum_consistent\": "
         << (op_consistent[s.op] ? "true" : "false") << ", \"results\": [";
    for (size_t i = 0; i < s.entries.size(); ++i) {
      const Entry& e = s.entries[i];
      json << (i == 0 ? "" : ", ")
           << StrFormat("{\"threads\": %d, \"ms\": %.3f", e.threads, e.ms);
      if (e.ms_median >= 0.0) {
        json << StrFormat(", \"ms_median\": %.3f", e.ms_median);
      }
      json << StrFormat(", \"speedup\": %.3f}", speedup_of(s, e));
    }
    json << "]}" << (si + 1 < series.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) return Fail("cannot write --out=%s", out_path);
  out << json.str();
  out.close();
  std::fprintf(stderr, "bench_to_json: wrote %s (%zu ops)\n",
               out_path.c_str(), series.size());

  if (!checksums_ok) return 2;

  // Throughput gates: --min_speedup=op:threads:factor[,op:threads:factor].
  int failures = 0;
  for (const std::string& gate : flags.GetList("min_speedup")) {
    const auto parts = Split(gate, ':');
    int64_t want_threads = 0;
    double want_factor = 0.0;
    if (parts.size() != 3 || !ParseInt64(parts[1], &want_threads) ||
        !ParseDouble(parts[2], &want_factor)) {
      return Fail("malformed --min_speedup entry '%s'", gate);
    }
    bool found = false;
    for (const OpSeries& s : series) {
      if (s.op != parts[0]) continue;
      for (const Entry& e : s.entries) {
        if (e.threads != want_threads) continue;
        found = true;
        const double got = speedup_of(s, e);
        const bool ok = got >= want_factor;
        std::fprintf(stderr,
                     "bench_to_json: %s %s@%d speedup %.2fx (want >= %.2fx)\n",
                     ok ? "PASS" : "FAIL", s.op.c_str(), e.threads, got,
                     want_factor);
        if (!ok) ++failures;
      }
    }
    if (!found) return Fail("--min_speedup refers to missing op/threads '%s'", gate);
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
