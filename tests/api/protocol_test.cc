// Wire-protocol round-trip tests: a scripted request battery (every op,
// every error class) served through a fresh ProtocolService and compared
// byte-for-byte against golden files under golden/. Timing-valued fields (and the two solve-quality doubles, which
// may differ in the last ulp across compilers) are normalized to `T`
// before the comparison; everything else — member order, separators,
// ids, error codes and messages, catalog versions, seq numbers — must
// match exactly.
//
// Regenerate the goldens after an intentional protocol change with
//   FAIRHMS_UPDATE_GOLDEN=1 ./fairhms_api_tests --gtest_filter='ProtocolGolden*'
// and review the diff like any other code change.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/protocol.h"
#include "api/service.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "skyline/skyline.h"

#ifndef FAIRHMS_TEST_SRCDIR
#error "FAIRHMS_TEST_SRCDIR must point at tests/api (set in CMakeLists)"
#endif

namespace fairhms {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(FAIRHMS_TEST_SRCDIR) + "/golden/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Replaces the numeric value of every volatile field with `T`: wall-clock
/// timings plus the two %.17g solve-quality doubles (deterministic within
/// one binary but not across compilers).
std::string Normalize(std::string s) {
  static const char* const kKeys[] = {
      "solve_ms",     "total_ms",  "uptime_ms",
      "qps",          "p50_ms",    "p99_ms",
      "happiness_ratio", "algo_mhr_estimate", "predicted_ms",
      "predicted_hr", "actual_ms"};
  for (const char* key : kKeys) {
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
  // String-valued fields that vary with the host CPU / environment rather
  // than the build: the kernel layer's dispatch level and mode.
  static const char* const kStringKeys[] = {"simd_level", "simd_mode"};
  for (const char* key : kStringKeys) {
    const std::string needle = std::string("\"") + key + "\": \"";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      const size_t end = s.find('"', start);
      if (end == std::string::npos) break;
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

/// Serves golden/requests.jsonl through a freshly bootstrapped service
/// (fixed seeds, one "default" dataset) and returns the normalized
/// response lines.
std::vector<std::string> ServeBattery(bool normalize = true) {
  DatasetCatalog catalog;
  Rng rng(1234);
  Dataset data = GenIndependent(60, 3, &rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 2);
  EXPECT_TRUE(
      catalog.Register("default", std::move(data), std::move(grouping)).ok());
  ServiceOptions opts;
  opts.default_seed = 7;
  opts.default_threads = 1;
  ProtocolService service(&catalog, opts);

  std::vector<std::string> responses;
  uint64_t line_no = 0;
  for (const std::string& line : ReadLines(GoldenPath("requests.jsonl"))) {
    ++line_no;
    std::string response = service.HandleLine(line, line_no);
    responses.push_back(normalize ? Normalize(std::move(response))
                                  : std::move(response));
  }
  // The battery's save op writes next to the test binary; drop the file
  // (and its cost-model sidecar) so reruns start clean (the bytes are
  // covered by snapshot tests).
  std::remove("protocol_golden_tiny.snap");
  std::remove("protocol_golden_tiny.snap.plan");
  return responses;
}

void CheckGolden(const std::string& name,
                 const std::vector<std::string>& lines) {
  std::string actual;
  for (const std::string& line : lines) actual += line + "\n";
  const std::string path = GoldenPath(name);
  if (std::getenv("FAIRHMS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path
                         << " (regenerate with FAIRHMS_UPDATE_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual) << "golden mismatch for " << name;
}

TEST(ProtocolGoldenTest, VersionedEnvelopeBattery) {
  CheckGolden("responses_v1.jsonl", ServeBattery());
}

TEST(ProtocolGoldenTest, VersionedResponsesAreValidJson) {
  for (const std::string& line : ServeBattery(/*normalize=*/false)) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    const JsonValue* version = parsed->Find("protocol_version");
    ASSERT_NE(version, nullptr) << line;
    EXPECT_EQ(*version->AsInt64(), kProtocolVersion);
    ASSERT_NE(parsed->Find("id"), nullptr) << line;
    const JsonValue* ok = parsed->Find("ok");
    ASSERT_NE(ok, nullptr) << line;
    if (!ok->bool_value()) {
      const JsonValue* error = parsed->Find("error");
      ASSERT_NE(error, nullptr) << line;
      ASSERT_TRUE(error->is_object()) << line;
      EXPECT_NE(error->Find("code"), nullptr) << line;
      EXPECT_NE(error->Find("message"), nullptr) << line;
      // The deprecated flat rendering is gone from the v1 envelope.
      EXPECT_EQ(parsed->Find("error_string"), nullptr) << line;
    }
  }
}

// ---------------------------------------------------------------------------
// ParseRequest / RenderRequestId unit coverage.

StatusOr<Request> Parse(const std::string& line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  Request out;
  FAIRHMS_RETURN_IF_ERROR(ParseRequest(*parsed, &out));
  return out;
}

TEST(ParseRequestTest, QueryIsTheDefaultOpAndSolveAnAlias) {
  auto q = Parse(R"({"algorithm": "intcov", "k": 5})");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->op, ProtocolOp::kQuery);
  EXPECT_EQ(q->dataset, "default");
  EXPECT_EQ(q->query.algorithm, "intcov");
  EXPECT_EQ(q->query.k, 5);
  auto s = Parse(R"({"op": "solve", "algorithm": "intcov", "k": 5})");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->op, ProtocolOp::kQuery);
}

TEST(ParseRequestTest, IdTokenRendering) {
  EXPECT_EQ(Parse(R"({"id": "a\"b", "op": "list"})")->id, "\"a\\\"b\"");
  EXPECT_EQ(Parse(R"({"id": 3, "op": "list"})")->id, "3");
  EXPECT_EQ(Parse(R"({"op": "list"})")->id, "");        // Absent.
  EXPECT_EQ(Parse(R"({"id": [1], "op": "list"})")->id, "");  // Non-scalar.
}

TEST(ParseRequestTest, IdSurvivesARejectedLine) {
  auto parsed = ParseJson(R"({"id": "keep", "op": "bogus"})");
  ASSERT_TRUE(parsed.ok());
  Request out;
  const Status status = ParseRequest(*parsed, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out.id, "\"keep\"");
}

TEST(ParseRequestTest, UnknownOpListsEveryOp) {
  auto r = Parse(R"({"op": "bogus"})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "want query, insert, delete, register, save, drop, list or "
                "stats"),
            std::string::npos)
      << r.status().message();
}

TEST(ParseRequestTest, DatasetMustBeAString) {
  auto r = Parse(R"({"dataset": 3, "op": "bogus"})");
  ASSERT_FALSE(r.ok());
  // Routing validation outranks the unknown-op error.
  EXPECT_NE(r.status().message().find("\"dataset\" must be a string"),
            std::string::npos);
}

TEST(ParseRequestTest, ExplicitBoundsNeedBothLists) {
  auto r = Parse(
      R"({"algorithm": "intcov", "k": 3, "bounds": "explicit", "lower": [1]})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("\"upper\""), std::string::npos);
  // Entries beyond int range are refused, not wrapped (2^32 + 1 -> 1).
  auto wrapped = Parse(
      R"({"algorithm": "intcov", "k": 4, "bounds": "explicit",)"
      R"( "lower": [4294967297, 4294967297],)"
      R"( "upper": [4294967298, 4294967298]})");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.status().message().find("out of range"), std::string::npos)
      << wrapped.status().message();
}

TEST(ParseRequestTest, EveryOpParses) {
  EXPECT_EQ(Parse(R"({"op": "insert", "point": [1, 2]})")->op,
            ProtocolOp::kInsert);
  EXPECT_EQ(Parse(R"({"op": "delete", "rows": [0]})")->op,
            ProtocolOp::kDelete);
  EXPECT_EQ(
      Parse(R"({"op": "register", "name": "x", "synthetic": "independent"})")
          ->op,
      ProtocolOp::kRegister);
  EXPECT_EQ(Parse(R"({"op": "save", "name": "x", "path": "p"})")->op,
            ProtocolOp::kSave);
  EXPECT_EQ(Parse(R"({"op": "drop", "name": "x"})")->op, ProtocolOp::kDrop);
  EXPECT_EQ(Parse(R"({"op": "list"})")->op, ProtocolOp::kList);
  EXPECT_EQ(Parse(R"({"op": "stats"})")->op, ProtocolOp::kStats);
}

TEST(RenderRequestIdTest, FallsBackToTheLineNumber) {
  EXPECT_EQ(RenderRequestId(R"({"id": "x"})", 9), "\"x\"");
  EXPECT_EQ(RenderRequestId(R"({"id": 12})", 9), "12");
  EXPECT_EQ(RenderRequestId(R"({"k": 3})", 9), "9");
  EXPECT_EQ(RenderRequestId("not json", 9), "9");
  EXPECT_EQ(RenderRequestId(R"([{"id": "x"}])", 9), "9");
}

// ---------------------------------------------------------------------------
// RenderErrorLine: every status code of the taxonomy (the server-layer
// codes — ResourceExhausted, DeadlineExceeded, Unavailable — only reach the
// wire through this path).

TEST(RenderErrorLineTest, EveryErrorClass) {
  const std::pair<Status, const char*> kCases[] = {
      {Status::InvalidArgument("m"), "InvalidArgument"},
      {Status::NotFound("m"), "NotFound"},
      {Status::FailedPrecondition("m"), "FailedPrecondition"},
      {Status::OutOfRange("m"), "OutOfRange"},
      {Status::ResourceExhausted("m"), "ResourceExhausted"},
      {Status::Internal("m"), "Internal"},
      {Status::Unimplemented("m"), "Unimplemented"},
      {Status::IOError("m"), "IOError"},
      {Status::Infeasible("m"), "Infeasible"},
      {Status::DeadlineExceeded("m"), "DeadlineExceeded"},
      {Status::Unavailable("m"), "Unavailable"},
  };
  for (const auto& [status, code] : kCases) {
    EXPECT_EQ(RenderErrorLine("\"x\"", status, EnvelopeOptions()),
              StrFormat("{\"id\": \"x\", \"ok\": false, "
                        "\"protocol_version\": 1, \"error\": {\"code\": "
                        "\"%s\", \"message\": \"m\"}}",
                        code));
  }
}

TEST(RenderErrorLineTest, MessagesAreJsonEscaped) {
  const std::string line = RenderErrorLine(
      "1", Status::InvalidArgument("a \"quoted\"\nline"), EnvelopeOptions());
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("error")->Find("message")->string_value(),
            "a \"quoted\"\nline");
}

/// Serves one default-bounds query line for `algorithm` through `service`.
Response ServeQuery(ProtocolService* service, const std::string& algorithm,
                    int k) {
  Request request;
  request.id = "1";
  request.query.algorithm = algorithm;
  request.query.k = k;
  return service->Execute(request);
}

TEST(ServedEstimateTest, BaselineEstimateIsTheReferenceRatio) {
  // A baseline's own estimate is the reference value the service reports,
  // plain or G-adapted, exact (2-D envelope, witness LPs) or, above 4000
  // skyline rows, the reference net.
  const std::vector<std::string> baselines = {
      "rdp_greedy", "dmm",   "sphere",   "hs",
      "g_greedy",   "g_dmm", "g_sphere", "g_hs"};
  const auto serve = [](int n, int dim, const std::vector<std::string>& algos,
                        int k, size_t min_skyline) {
    DatasetCatalog catalog;
    Rng rng(static_cast<uint64_t>(dim));
    Dataset data = GenAntiCorrelated(static_cast<size_t>(n), dim, &rng)
                       .NormalizedMinMax();
    ASSERT_GT(ComputeSkyline(data).size(), min_skyline);
    Grouping grouping = GroupBySumRank(data, 2);
    ASSERT_TRUE(
        catalog.Register("default", std::move(data), std::move(grouping))
            .ok());
    ProtocolService service(&catalog, ServiceOptions());
    for (const std::string& algo : algos) {
      const Response r = ServeQuery(&service, algo, k);
      ASSERT_TRUE(r.ok) << algo << " d=" << dim << ": " << r.error.ToString();
      EXPECT_EQ(r.query.algo_mhr_estimate, r.query.happiness_ratio)
          << algo << " d=" << dim;
    }
  };
  serve(400, 2, baselines, 8, 0);
  serve(400, 3, baselines, 8, 0);
  serve(8000, 5, {"dmm", "hs"}, 6, 4000);
}

TEST(ProtocolServiceTest, UnknownDatasetLinesAnswerNotFound) {
  // A query, an insert and a delete naming an unregistered dataset: each
  // answers NotFound, echoes the dataset and draws a seq, and leaves the
  // catalog as it was.
  DatasetCatalog catalog;
  Rng rng(1234);
  Dataset data = GenIndependent(60, 3, &rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 2);
  ASSERT_TRUE(
      catalog.Register("default", std::move(data), std::move(grouping)).ok());
  ProtocolService service(&catalog, ServiceOptions());
  const std::vector<std::pair<std::string, std::string>> lines = {
      {R"({"id": "q", "dataset": "ghost", "algorithm": "intcov", "k": 4})",
       R"({"id": "q", "ok": false, "protocol_version": 1, "seq": 1, )"
       R"("dataset": "ghost", "error": {"code": "NotFound", "message": )"
       R"("no dataset named 'ghost' in the catalog"}})"},
      {R"({"id": "i", "dataset": "ghost", "op": "insert", )"
       R"("point": [0.5, 0.5, 0.5], "group": 0})",
       R"({"id": "i", "ok": false, "protocol_version": 1, "seq": 2, )"
       R"("dataset": "ghost", "error": {"code": "NotFound", "message": )"
       R"("no dataset named 'ghost' in the catalog"}})"},
      {R"({"id": "d", "dataset": "ghost", "op": "delete", "rows": [3]})",
       R"({"id": "d", "ok": false, "protocol_version": 1, "seq": 3, )"
       R"("dataset": "ghost", "error": {"code": "NotFound", "message": )"
       R"("no dataset named 'ghost' in the catalog"}})"},
  };
  uint64_t line_no = 0;
  for (const auto& [request, reply] : lines) {
    EXPECT_EQ(service.HandleLine(request, ++line_no), reply);
  }
  EXPECT_EQ(catalog.List(), std::vector<std::string>{"default"});
  EXPECT_EQ(catalog.version(), 1u);
  EXPECT_EQ(service.failed(), 3u);
  EXPECT_EQ(service.updates(), 0u);
}

// ---------------------------------------------------------------------------
// RenderResponse, byte for byte, on shapes the served battery does not
// reach.

/// A served query with every optional member unset.
Response QueryFixture() {
  Response r;
  r.id = "\"q\"";
  r.ok = true;
  r.op = ProtocolOp::kQuery;
  r.dataset = "default";
  r.has_catalog_version = true;
  r.catalog_version = 3;
  r.has_seq = true;
  r.seq = 12;
  QueryResponse& q = r.query;
  q.algorithm = "bigreedy";
  q.k = 4;
  q.seed = 7;
  q.threads = 1;
  q.rows = {2, 5, 6, 17};
  q.happiness_ratio = 0.8125;
  q.algo_mhr_estimate = 0.1;
  q.violations = 0;
  q.group_counts = {1, 3};
  q.solve_ms = 1.23456;
  q.total_ms = 2.5;
  return r;
}

/// A stats payload with two datasets (one with per-class cache counters)
/// and two ledger sessions.
Response StatsFixture() {
  Response r;
  r.id = "7";
  r.ok = true;
  r.op = ProtocolOp::kStats;
  r.has_catalog_version = true;
  r.catalog_version = 2;
  StatsResponse& s = r.stats;
  s.uptime_ms = 1500.25;
  s.served = 9;
  s.failed = 1;
  s.qps = 6.0;
  s.simd_level = "avx2";
  s.simd_mode = "auto";
  StatsResponse::DatasetStats a;
  a.name = "default";
  a.live_rows = 58;
  a.total_rows = 60;
  a.dim = 3;
  a.groups = 2;
  a.version = 4;
  a.coord_bytes = 1440;
  a.cache_hits = 5;
  a.cache_misses = 3;
  a.cache_bytes = 4096;
  a.cache_classes = {{"nets", 2, 1, 1024}, {"evaluators", 3, 2, 3072}};
  StatsResponse::DatasetStats b;
  b.name = "t\"x";
  b.live_rows = 10;
  b.total_rows = 10;
  b.dim = 2;
  b.groups = 1;
  b.version = 1;
  b.coord_bytes = 160;
  s.datasets = {a, b};
  s.cache_budget_bytes = 1073741824;
  s.cache_total_bytes = 4096;
  s.cache_evictions = 0;
  s.cache_sessions = {{"default", 4096, 11}, {"t\"x", 0, 2}};
  StatsResponse::OpStats query;
  query.op = ProtocolOp::kQuery;
  query.count = 8;
  query.errors = 1;
  query.total_ms = 20.5;
  query.p50_ms = 2.25;
  query.p99_ms = 4.0;
  StatsResponse::OpStats insert;
  insert.op = ProtocolOp::kInsert;
  insert.count = 1;
  insert.total_ms = 0.125;
  insert.p50_ms = 0.125;
  insert.p99_ms = 0.125;
  s.ops = {query, insert};
  return r;
}

TEST(RenderPinnedTest, PlannedQueryEchoesTheParams) {
  Response r = QueryFixture();
  r.query.planned = true;
  r.query.predicted_ms = 0.75;
  r.query.predicted_hr = 0.9;
  r.query.plan_reason = "capability default (cold model)";
  r.query.plan_params = "net_size=400";
  EXPECT_EQ(RenderResponse(r, EnvelopeOptions()),
            R"-({"id": "q", "ok": true, "protocol_version": 1, "seq": 12, )-"
            R"-("dataset": "default", "catalog_version": 3, )-"
            R"-("algorithm": "bigreedy", "k": 4, "seed": 7, "threads": 1, )-"
            R"-("solution_size": 4, "rows": [2, 5, 6, 17], )-"
            R"-("happiness_ratio": 0.8125, )-"
            R"-("algo_mhr_estimate": 0.10000000000000001, )-"
            R"-("violations": 0, "group_counts": [1, 3], )-"
            R"-("plan": {"requested": "auto", "algorithm": "bigreedy", )-"
            R"-("predicted_ms": 0.750, )-"
            R"-("predicted_hr": 0.90000000000000002, "actual_ms": 1.235, )-"
            R"-("reason": "capability default (cold model)", )-"
            R"-("params": "net_size=400"}, "solve_ms": 1.235, )-"
            R"-("total_ms": 2.500})-");
}

TEST(RenderPinnedTest, NoteAndWarmStart) {
  Response r = QueryFixture();
  r.query.note = "solved on a \"2-D\" projection";
  r.query.warm_start = true;
  EXPECT_EQ(RenderResponse(r, EnvelopeOptions()),
            R"-({"id": "q", "ok": true, "protocol_version": 1, "seq": 12, )-"
            R"-("dataset": "default", "catalog_version": 3, )-"
            R"-("algorithm": "bigreedy", "k": 4, "seed": 7, "threads": 1, )-"
            R"-("solution_size": 4, "rows": [2, 5, 6, 17], )-"
            R"-("happiness_ratio": 0.8125, )-"
            R"-("algo_mhr_estimate": 0.10000000000000001, )-"
            R"-("violations": 0, "group_counts": [1, 3], )-"
            R"-("note": "solved on a \"2-D\" projection", )-"
            R"-("warm_start": true, "solve_ms": 1.235, "total_ms": 2.500})-");
}

TEST(RenderPinnedTest, EnvelopeWithoutSeq) {
  // perfbench's replay renders with emit_seq = false: the seq a response
  // carries stays off the line, on ok and error lines alike.
  EnvelopeOptions no_seq;
  no_seq.emit_seq = false;
  Response r;
  r.id = "4";
  r.ok = true;
  r.op = ProtocolOp::kInsert;
  r.dataset = "default";
  r.has_catalog_version = true;
  r.catalog_version = 1;
  r.has_seq = true;
  r.seq = 9;
  r.insert = {61, 1, "g1", 5, 59};
  EXPECT_EQ(RenderResponse(r, no_seq),
            R"-({"id": 4, "ok": true, "protocol_version": 1, )-"
            R"-("dataset": "default", "catalog_version": 1, )-"
            R"-("op": "insert", "row": 61, "group": 1, )-"
            R"-("group_name": "g1", "version": 5, "live_rows": 59})-");
  Response error;
  error.id = "5";
  error.has_seq = true;
  error.seq = 10;
  error.dataset = "ghost";
  error.error = Status::NotFound("no dataset named 'ghost'");
  EXPECT_EQ(RenderResponse(error, no_seq),
            R"-({"id": 5, "ok": false, "protocol_version": 1, )-"
            R"-("dataset": "ghost", "error": {"code": "NotFound", )-"
            R"-("message": "no dataset named 'ghost'"}})-");
}

TEST(RenderPinnedTest, StatsWithTwoDatasetsAndTwoSessions) {
  EXPECT_EQ(RenderResponse(StatsFixture(), EnvelopeOptions()),
            R"-({"id": 7, "ok": true, "protocol_version": 1, )-"
            R"-("catalog_version": 2, "op": "stats", )-"
            R"-("uptime_ms": 1500.250, "served": 9, "failed": 1, )-"
            R"-("qps": 6.000, "simd_level": "avx2", "simd_mode": "auto", )-"
            R"-("datasets": [{"name": "default", "live_rows": 58, )-"
            R"-("rows": 60, "dim": 3, "groups": 2, "version": 4, )-"
            R"-("coord_bytes": 1440, "cache_hits": 5, "cache_misses": 3, )-"
            R"-("cache_bytes": 4096, )-"
            R"-("cache_classes": {"nets": {"hits": 2, "misses": 1, )-"
            R"-("bytes": 1024}, "evaluators": {"hits": 3, "misses": 2, )-"
            R"-("bytes": 3072}}}, {"name": "t\"x", "live_rows": 10, )-"
            R"-("rows": 10, "dim": 2, "groups": 1, "version": 1, )-"
            R"-("coord_bytes": 160, "cache_hits": 0, "cache_misses": 0, )-"
            R"-("cache_bytes": 0}], "cache": {"budget_bytes": 1073741824, )-"
            R"-("total_bytes": 4096, "evictions": 0, )-"
            R"-("sessions": [{"name": "default", "charged_bytes": 4096, )-"
            R"-("last_touch": 11}, {"name": "t\"x", "charged_bytes": 0, )-"
            R"-("last_touch": 2}]}, "ops": [{"op": "query", "count": 8, )-"
            R"-("errors": 1, "total_ms": 20.500, "p50_ms": 2.250, )-"
            R"-("p99_ms": 4.000}, {"op": "insert", "count": 1, )-"
            R"-("errors": 0, "total_ms": 0.125, "p50_ms": 0.125, )-"
            R"-("p99_ms": 0.125}]})-");
}

TEST(RenderResponseTest, EveryResponseIsValidJson) {
  // Every op's payload, every status code on an error line, and non-finite
  // doubles in the query's three quality fields. JSON has no NaN or
  // Infinity: those render as null. The renderer before JsonWriter printed
  // nan / inf / -inf, so the NaN case fails against it.
  std::vector<Response> responses;
  responses.push_back(QueryFixture());
  Response planned = QueryFixture();
  planned.query.planned = true;
  planned.query.plan_reason = "r";
  planned.query.plan_params = "net_size=400";
  responses.push_back(planned);
  Response op = QueryFixture();
  op.query = QueryResponse();
  op.op = ProtocolOp::kInsert;
  op.insert = {61, 1, "g\n1", 5, 59};
  responses.push_back(op);
  op.op = ProtocolOp::kDelete;
  op.erase = {2, 6, 57};
  responses.push_back(op);
  op.op = ProtocolOp::kRegister;
  op.reg = {"x", 500, 3, 2};
  responses.push_back(op);
  op.op = ProtocolOp::kSave;
  op.save = {"x", "dir/x.snap"};
  responses.push_back(op);
  op.op = ProtocolOp::kDrop;
  op.drop = {"x"};
  responses.push_back(op);
  op.op = ProtocolOp::kList;
  op.dataset.clear();
  op.list.datasets = {"default", "x"};
  responses.push_back(op);
  responses.push_back(StatsFixture());
  for (int code = 0; code <= static_cast<int>(StatusCode::kUnavailable);
       ++code) {
    Response error;
    error.id = "\"e\"";
    error.error = Status(static_cast<StatusCode>(code), "bad \"line\"");
    responses.push_back(error);
  }
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const double v : kNonFinite) {
    Response r = planned;
    r.query.happiness_ratio = v;
    r.query.algo_mhr_estimate = v;
    r.query.predicted_hr = v;
    responses.push_back(r);
  }
  for (const Response& r : responses) {
    const std::string line = RenderResponse(r, EnvelopeOptions());
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    EXPECT_EQ(parsed->Find("ok")->bool_value(), r.ok) << line;
    if (r.ok && r.op == ProtocolOp::kQuery &&
        !std::isfinite(r.query.happiness_ratio)) {
      EXPECT_TRUE(parsed->Find("happiness_ratio")->is_null()) << line;
      EXPECT_TRUE(parsed->Find("algo_mhr_estimate")->is_null()) << line;
      EXPECT_TRUE(parsed->Find("plan")->Find("predicted_hr")->is_null())
          << line;
    }
  }
}

}  // namespace
}  // namespace fairhms
