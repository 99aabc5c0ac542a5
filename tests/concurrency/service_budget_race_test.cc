// ProtocolService::HandleLine from several threads over two dynamic
// datasets under a one-byte global cache budget: queries, inserts and
// deletes interleave while every op's rebalance evicts whatever the other
// threads just cached. The service takes no lock of its own around the
// CacheArbiter (each arbiter call locks itself), so this is where a
// Touch/Rebalance race would show: every reply must equal the one a quiet
// single-threaded replay of the same lines in "seq" order gives, and once
// the threads are done the arbiter's charged total must equal the sum of
// the sessions' own byte counts. DatasetChurnRaceTest adds catalog churn:
// while four threads serve one dataset, another drops and re-registers a
// second one (each register creates that entry's dataset lock, each drop
// destroys it) and sends lines naming datasets that do not exist.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/service.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace fairhms {
namespace {

constexpr int kThreads = 4;
constexpr int kLinesPerThread = 36;
const char* const kDatasets[] = {"a", "b"};

void Bootstrap(DatasetCatalog* catalog) {
  for (int i = 0; i < 2; ++i) {
    Rng rng(static_cast<uint64_t>(61 + i));
    Dataset data = (i == 0 ? GenIndependent(300, 3, &rng)
                           : GenAntiCorrelated(300, 3, &rng))
                       .NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, 3);
    ASSERT_TRUE(catalog
                    ->Register(kDatasets[i], std::move(data),
                               std::move(grouping))
                    .ok());
  }
}

ServiceOptions ServiceOpts() {
  ServiceOptions opts;
  opts.default_seed = 7;
  opts.default_threads = 1;
  return opts;
}

/// Thread `t`'s lines: every algorithm family the cache serves (BiGreedy
/// and G-* read the pool, IntCov the 2-D projection, the plain baseline
/// the skyline) plus inserts and deletes, alternating datasets. Deleted
/// rows are distinct per (thread, line), so every delete succeeds in any
/// interleaving; warm starts are off so no answer depends on which solve
/// ran first.
std::vector<std::string> Script(int t) {
  std::vector<std::string> lines;
  for (int i = 0; i < kLinesPerThread; ++i) {
    const char* dataset = kDatasets[(t + i) % 2];
    switch (i % 6) {
      case 0:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"algorithm\": "
            "\"bigreedy\", \"k\": 5, \"warm_start\": false, \"params\": "
            "{\"net_size\": 64}}",
            t, i, dataset));
        break;
      case 1:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"algorithm\": "
            "\"g_greedy\", \"k\": 6}",
            t, i, dataset));
        break;
      case 2:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"op\": \"insert\", "
            "\"point\": [0.%d, 0.%d5, 0.9], \"group\": %d}",
            t, i, dataset, 9 - t, i % 10, (t + i) % 3));
        break;
      case 3:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"algorithm\": "
            "\"intcov\", \"k\": 4, \"alpha\": 0.2}",
            t, i, dataset));
        break;
      case 4:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"op\": \"delete\", "
            "\"rows\": [%d]}",
            t, i, dataset, t * kLinesPerThread + i));
        break;
      default:
        lines.push_back(StrFormat(
            "{\"id\": \"t%d-%d\", \"dataset\": \"%s\", \"algorithm\": "
            "\"rdp_greedy\", \"k\": 5}",
            t, i, dataset));
        break;
    }
  }
  return lines;
}

/// Blanks the wall-clock fields, the only reply bytes a replay may change.
std::string NormalizeTimings(std::string s) {
  for (const char* key : {"solve_ms", "total_ms"}) {
    const std::string needle = std::string("\"") + key + "\": ";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      size_t end = start;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              std::strchr(".eE+-", s[end]) != nullptr)) {
        ++end;
      }
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

int64_t Seq(const std::string& reply) {
  const std::string needle = "\"seq\": ";
  const size_t pos = reply.find(needle);
  return pos == std::string::npos
             ? -1
             : std::strtoll(reply.c_str() + pos + needle.size(), nullptr, 10);
}

struct Served {
  std::string request;
  std::string reply;
};

/// Serves each script through `service` from a thread of its own; returns
/// each thread's (request, reply) log.
std::vector<std::vector<Served>> ServeConcurrently(
    ProtocolService* service,
    const std::vector<std::vector<std::string>>& scripts) {
  std::vector<std::vector<Served>> served(scripts.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < scripts.size(); ++t) {
    threads.emplace_back([service, &scripts, &served, t] {
      uint64_t line_no = 0;
      for (const std::string& line : scripts[t]) {
        served[t].push_back({line, service->HandleLine(line, ++line_no)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return served;
}

/// Merges the threads' logs in seq order, replays them through a quiet
/// service over a freshly bootstrapped catalog, and checks each reply (ok
/// or not, as `expect_ok` says) against the replay's.
void ExpectQuietReplay(const std::vector<std::vector<Served>>& served,
                       size_t expected_lines,
                       bool (*expect_ok)(const std::string& request)) {
  std::vector<Served> log;
  for (const std::vector<Served>& mine : served) {
    log.insert(log.end(), mine.begin(), mine.end());
  }
  std::sort(log.begin(), log.end(), [](const Served& a, const Served& b) {
    return Seq(a.reply) < Seq(b.reply);
  });
  ASSERT_EQ(log.size(), expected_lines);

  DatasetCatalog quiet_catalog;
  Bootstrap(&quiet_catalog);
  ProtocolService quiet(&quiet_catalog, ServiceOpts());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(Seq(log[i].reply), static_cast<int64_t>(i) + 1);
    EXPECT_EQ(log[i].reply.find("\"ok\": true") != std::string::npos,
              expect_ok(log[i].request))
        << log[i].reply;
    EXPECT_EQ(NormalizeTimings(log[i].reply),
              NormalizeTimings(quiet.HandleLine(log[i].request, i + 1)))
        << "request: " << log[i].request;
  }
}

/// The arbiter's charged total equals the sum of the registered sessions'
/// own byte counts.
void ExpectLedgerMatchesSessions(DatasetCatalog* catalog) {
  uint64_t session_bytes = 0;
  for (const std::string& name : catalog->List()) {
    session_bytes +=
        catalog->Session(name).value()->cache_stats().TotalBytes();
  }
  EXPECT_EQ(catalog->arbiter()->total_bytes(), session_bytes);
}

TEST(ServiceBudgetRaceTest, EvictingHandleLinesReplayInSeqOrder) {
  DatasetCatalog catalog(DatasetCatalog::Options{/*cache_budget_bytes=*/1});
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());

  std::vector<std::vector<std::string>> scripts;
  for (int t = 0; t < kThreads; ++t) scripts.push_back(Script(t));
  const std::vector<std::vector<Served>> served =
      ServeConcurrently(&service, scripts);
  EXPECT_GT(catalog.arbiter()->evictions(), 0u);

  ExpectQuietReplay(served, static_cast<size_t>(kThreads * kLinesPerThread),
                    [](const std::string&) { return true; });
  ExpectLedgerMatchesSessions(&catalog);
}

/// Serving thread `t` of the churn race: queries and inserts on "a" only.
std::vector<std::string> ServeScript(int t) {
  std::vector<std::string> lines;
  for (int i = 0; i < kLinesPerThread; ++i) {
    switch (i % 4) {
      case 0:
        lines.push_back(StrFormat(
            "{\"id\": \"s%d-%d\", \"dataset\": \"a\", \"algorithm\": "
            "\"bigreedy\", \"k\": 5, \"warm_start\": false, \"params\": "
            "{\"net_size\": 64}}",
            t, i));
        break;
      case 1:
        lines.push_back(StrFormat(
            "{\"id\": \"s%d-%d\", \"dataset\": \"a\", \"op\": "
            "\"insert\", \"point\": [0.%d, 0.%d5, 0.9], \"group\": %d}",
            t, i, 9 - t, i % 10, (t + i) % 3));
        break;
      case 2:
        lines.push_back(StrFormat(
            "{\"id\": \"s%d-%d\", \"dataset\": \"a\", \"algorithm\": "
            "\"intcov\", \"k\": 4, \"alpha\": 0.2}",
            t, i));
        break;
      default:
        lines.push_back(StrFormat(
            "{\"id\": \"s%d-%d\", \"dataset\": \"a\", \"algorithm\": "
            "\"g_greedy\", \"k\": 6}",
            t, i));
        break;
    }
  }
  return lines;
}

/// The churn thread: drops "b", serves it and unknown names while it is
/// gone, re-registers it, serves it again.
std::vector<std::string> ChurnScript() {
  std::vector<std::string> lines;
  for (int r = 0; r < kLinesPerThread / 6; ++r) {
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-drop\", \"op\": \"drop\", \"name\": \"b\"}",
        r));
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-gone\", \"dataset\": \"b\", \"algorithm\": "
        "\"rdp_greedy\", \"k\": 5}",
        r));
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-ghost\", \"dataset\": \"ghost-%d\", \"op\": "
        "\"insert\", \"point\": [0.5, 0.5, 0.5], \"group\": 0}",
        r, r));
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-ghost-delete\", \"dataset\": \"ghost-%d\", "
        "\"op\": \"delete\", \"rows\": [1]}",
        r, r));
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-register\", \"op\": \"register\", \"name\": "
        "\"b\", \"synthetic\": \"anticorrelated\", \"n\": 300, "
        "\"dim\": 3, \"groups\": 3, \"seed\": %d}",
        r, 70 + r));
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-back\", \"dataset\": \"b\", \"algorithm\": "
        "\"bigreedy\", \"k\": 5, \"warm_start\": false, \"params\": "
        "{\"net_size\": 64}}",
        r));
  }
  return lines;
}

bool ChurnLineSucceeds(const std::string& request) {
  return request.find("-gone") == std::string::npos &&
         request.find("ghost") == std::string::npos;
}

TEST(DatasetChurnRaceTest, DropRegisterAndUnknownNamesReplayInSeqOrder) {
  DatasetCatalog catalog(DatasetCatalog::Options{/*cache_budget_bytes=*/1});
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());

  std::vector<std::vector<std::string>> scripts;
  for (int t = 0; t < kThreads; ++t) scripts.push_back(ServeScript(t));
  scripts.push_back(ChurnScript());
  const std::vector<std::vector<Served>> served =
      ServeConcurrently(&service, scripts);
  EXPECT_GT(catalog.arbiter()->evictions(), 0u);
  EXPECT_EQ(catalog.List(), (std::vector<std::string>{"a", "b"}));

  ExpectQuietReplay(
      served,
      static_cast<size_t>(kThreads * kLinesPerThread) + scripts.back().size(),
      ChurnLineSucceeds);
  ExpectLedgerMatchesSessions(&catalog);
}

}  // namespace
}  // namespace fairhms
