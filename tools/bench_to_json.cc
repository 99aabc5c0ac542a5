// bench_to_json: turns a pass bench's CSV (bench/bench_util.h's Harness)
// into its BENCH_<name>.json report, and gates on it:
//
//   * identity — every row of an op must carry the same checksum, since
//     each pass computes the same answer a different way (exit 2; the
//     report is still written);
//   * speed — each --gate=op:pass[@t]/pass[@t]>=x must hold, where the
//     ratio is ms_min(right) / ms_min(left) and @t defaults to @1 (exit 1;
//     the report is still written).
//
// Malformed input exits 1 without writing a report: a row that is not
// op,pass,threads,reps,ms_min,ms_median,ms_p90,checksum with threads and
// reps >= 1, times >= 0 and a non-empty checksum; a duplicate (op, pass,
// threads) row; or a gate whose either side names no row.
//
//   bench_kernel --threads=1,2,4 |
//     bench_to_json --out=BENCH_kernel.json
//       --gate='cache_fill:simd/legacy>=3,mhr_sweep:simd@4/simd@1>=1.5'

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
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

struct Row {
  std::string pass;
  int threads = 0;
  int reps = 0;
  double ms_min = 0.0;
  double ms_median = 0.0;
  double ms_p90 = 0.0;
  std::string checksum;
};

struct Op {
  std::string name;
  std::vector<Row> rows;  ///< Input order.
  bool consistent = true;
};

struct Gate {
  std::string spec;
  double ratio = 0.0;
  bool ok = false;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "bench_to_json: %s\n", message.c_str());
  return 1;
}

/// Parses "op,pass,threads,reps,ms_min,ms_median,ms_p90,checksum".
bool ParseRow(const std::vector<std::string>& cells, Row* row) {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  int64_t threads = 0;
  int64_t reps = 0;
  if (cells.size() != 8 || cells[0].empty() || cells[1].empty() ||
      cells[7].empty() || !ParseInt64(cells[2], &threads) ||
      !ParseInt64(cells[3], &reps) || threads < 1 || threads > kIntMax ||
      reps < 1 || reps > kIntMax || !ParseDouble(cells[4], &row->ms_min) ||
      !ParseDouble(cells[5], &row->ms_median) ||
      !ParseDouble(cells[6], &row->ms_p90)) {
    return false;
  }
  row->pass = cells[1];
  row->threads = static_cast<int>(threads);
  row->reps = static_cast<int>(reps);
  row->checksum = cells[7];
  return row->ms_min >= 0.0 && row->ms_median >= 0.0 && row->ms_p90 >= 0.0;
}

/// The row "pass[@t]" names within `op`, or null.
const Row* FindRow(const Op& op, const std::string& side) {
  const auto parts = Split(side, '@');
  int64_t threads = 1;
  if (parts.size() > 2 ||
      (parts.size() == 2 && !ParseInt64(parts[1], &threads))) {
    return nullptr;
  }
  for (const Row& row : op.rows) {
    if (row.pass == parts[0] && row.threads == threads) return &row;
  }
  return nullptr;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(
        "bench_to_json --in=FILE|- --out=FILE "
        "[--gate=op:pass[@t]/pass[@t]>=x,...]\n"
        "Reads a pass bench's CSV (op,pass,threads,reps,ms_min,ms_median,\n"
        "ms_p90,checksum) and writes its JSON report. A gate holds when\n"
        "ms_min(right) / ms_min(left) >= x; @t defaults to @1.\n"
        "Exits 1 on malformed input (no report) or an unmet gate, 2 when\n"
        "two rows of an op disagree on the checksum.\n",
        stdout);
    return 0;
  }
  const std::string in_path = flags.GetString("in", "-");
  const std::string out_path = flags.GetString("out", "BENCH.json");
  const std::vector<std::string> gate_specs = flags.GetList("gate");
  if (Status st = flags.Finish("bench_to_json"); !st.ok()) {
    return Fail(st.ToString());
  }

  std::ifstream file;
  if (in_path != "-") {
    file.open(in_path);
    if (!file) return Fail("cannot open --in=" + in_path);
  }
  std::istream& in = in_path == "-" ? std::cin : file;

  std::map<std::string, std::string> config;
  std::vector<Op> ops;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      // "# bench=kernel n=10000 dim=6 ..." -> config map.
      for (const std::string& kv : Split(trimmed.substr(1), ' ')) {
        const auto parts = Split(kv, '=');
        if (parts.size() == 2 && !parts[0].empty()) {
          config[parts[0]] = parts[1];
        }
      }
      continue;
    }
    const auto cells = Split(trimmed, ',');
    if (!cells.empty() && cells[0] == "op") continue;  // Header.
    Row row;
    if (!ParseRow(cells, &row)) return Fail("malformed CSV row: " + line);
    Op* op = nullptr;
    for (Op& existing : ops) {
      if (existing.name == cells[0]) op = &existing;
    }
    if (op == nullptr) {
      ops.push_back({cells[0], {}, true});
      op = &ops.back();
    }
    for (const Row& seen : op->rows) {
      if (seen.pass == row.pass && seen.threads == row.threads) {
        return Fail("duplicate row: " + line);
      }
    }
    op->rows.push_back(std::move(row));
  }
  if (ops.empty()) return Fail("no data rows in " + in_path);

  // Gates: "op:left/right>=x", every side naming an existing row.
  std::vector<Gate> gates;
  for (const std::string& spec : gate_specs) {
    const size_t colon = spec.find(':');
    const size_t slash = spec.find('/');
    const size_t ge = spec.find(">=");
    double want = 0.0;
    if (colon == std::string::npos || slash == std::string::npos ||
        ge == std::string::npos || !(colon < slash && slash < ge) ||
        !ParseDouble(spec.substr(ge + 2), &want)) {
      return Fail("malformed --gate '" + spec + "'");
    }
    const std::string name = spec.substr(0, colon);
    const Row* left = nullptr;
    const Row* right = nullptr;
    for (const Op& op : ops) {
      if (op.name != name) continue;
      left = FindRow(op, spec.substr(colon + 1, slash - colon - 1));
      right = FindRow(op, spec.substr(slash + 1, ge - slash - 1));
    }
    if (left == nullptr || right == nullptr) {
      return Fail("--gate '" + spec + "' names a missing row");
    }
    // Times below the CSV's 0.001 ms resolution count as 0.001 ms.
    const double ratio = right->ms_min / std::max(left->ms_min, 1e-3);
    gates.push_back({spec, ratio, ratio >= want});
  }

  // Identity: every row of an op against its first.
  bool identical = true;
  for (Op& op : ops) {
    const Row& first = op.rows.front();
    for (const Row& row : op.rows) {
      if (row.checksum == first.checksum) continue;
      std::fprintf(stderr,
                   "bench_to_json: CHECKSUM MISMATCH: op %s pass %s@%d (%s) "
                   "differs from %s@%d (%s)\n",
                   op.name.c_str(), row.pass.c_str(), row.threads,
                   row.checksum.c_str(), first.pass.c_str(), first.threads,
                   first.checksum.c_str());
      op.consistent = false;
      identical = false;
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \""
       << JsonEscape(config.count("bench") ? config.at("bench") : "")
       << "\",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    json << (first ? "" : ", ") << '"' << JsonEscape(key) << "\": \""
         << JsonEscape(value) << '"';
    first = false;
  }
  json << "},\n  \"ops\": [\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    json << "    {\"op\": \"" << JsonEscape(ops[i].name)
         << "\", \"checksum_consistent\": "
         << (ops[i].consistent ? "true" : "false") << ", \"rows\": [";
    for (size_t r = 0; r < ops[i].rows.size(); ++r) {
      const Row& row = ops[i].rows[r];
      json << (r == 0 ? "\n" : ",\n")
           << StrFormat("      {\"pass\": \"%s\", \"threads\": %d, "
                        "\"reps\": %d, \"ms_min\": %.3f, \"ms_median\": %.3f, "
                        "\"ms_p90\": %.3f}",
                        JsonEscape(row.pass).c_str(), row.threads, row.reps,
                        row.ms_min, row.ms_median, row.ms_p90);
    }
    json << "]}" << (i + 1 < ops.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"gates\": [";
  for (size_t i = 0; i < gates.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n")
         << StrFormat("    {\"gate\": \"%s\", \"ratio\": %.3f, \"ok\": %s}",
                      JsonEscape(gates[i].spec).c_str(), gates[i].ratio,
                      gates[i].ok ? "true" : "false");
  }
  json << (gates.empty() ? "]\n}\n" : "\n  ]\n}\n");

  std::ofstream out(out_path);
  if (!out) return Fail("cannot write --out=" + out_path);
  out << json.str();
  out.close();
  std::fprintf(stderr, "bench_to_json: wrote %s (%zu ops)\n",
               out_path.c_str(), ops.size());

  int unmet = 0;
  for (const Gate& gate : gates) {
    std::fprintf(stderr, "bench_to_json: %s %s (ratio %.2f)\n",
                 gate.ok ? "PASS" : "FAIL", gate.spec.c_str(), gate.ratio);
    if (!gate.ok) ++unmet;
  }
  if (!identical) return 2;
  return unmet > 0 ? 1 : 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
