// The FairHMS wire protocol: typed request/response structs for the
// newline-delimited JSON serving surface, plus the versioned response
// envelope shared by every transport.
//
// History: the batch protocol grew inside `fairhms_cli --queries` as
// ad-hoc JSON handling. This header lifts it into the public API so the
// batch CLI and the fairhms_serve daemon are two thin transports over ONE
// implementation (api/service.h executes parsed Requests against a
// DatasetCatalog) — the wire format can no longer fork between them.
//
// Requests: one JSON object per line. `op` selects the operation (default
// "query"; "solve" is an accepted alias), `id` (string or number) is
// echoed verbatim in the response (defaulting to the 1-based line number),
// and `dataset` routes per-dataset ops to a catalog entry (default
// "default"). Ops: query, insert, delete, register, save, drop, list,
// stats.
//
// Responses: one JSON object per line, rendered by RenderResponse. Every
// response carries "protocol_version" (kProtocolVersion) and the service's
// "seq" stamp, and errors are structured objects whose "code" is the
// canonical StatusCode spelling (common/status.h):
//   {"id": 3, "ok": true, "protocol_version": 1, "seq": 3, "dataset": "d",
//    "catalog_version": 1, ...payload...}
//   {"id": 3, "ok": false, "protocol_version": 1, "seq": 4,
//    "error": {"code": "InvalidArgument", "message": "..."}}
//
// Parsing splits structural validation (ParseRequest — field presence and
// JSON types) from state-dependent validation (api/service.h — dimension
// checks, group lookups, bounds feasibility), so a Request can be parsed,
// queued and admission-checked without touching the catalog.

#ifndef FAIRHMS_API_PROTOCOL_H_
#define FAIRHMS_API_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/params.h"
#include "common/json.h"
#include "common/status.h"
#include "common/statusor.h"

namespace fairhms {

/// The envelope version every response carries — bump when the envelope
/// (not a payload) changes incompatibly.
inline constexpr int kProtocolVersion = 1;

enum class ProtocolOp : int {
  kQuery = 0,
  kInsert,
  kDelete,
  kRegister,
  kSave,
  kDrop,
  kList,
  kStats,
};
inline constexpr int kNumProtocolOps = static_cast<int>(ProtocolOp::kStats) + 1;

/// Canonical wire spelling ("query", "insert", ...).
const char* ProtocolOpName(ProtocolOp op);

/// One solve: everything a query line may carry. Bounds are stored
/// structurally (kind + alpha + explicit lists); the service constructs the
/// GroupBounds against the live group counts at execution time.
struct QueryRequest {
  std::string algorithm;  ///< Registry name, or "auto" for the planner.
  int k = 0;
  enum class Bounds { kProportional, kBalanced, kExplicit };
  Bounds bounds = Bounds::kProportional;
  double alpha = 0.1;
  std::vector<int> lower;  ///< Explicit bounds only.
  std::vector<int> upper;
  bool has_seed = false;
  uint64_t seed = 0;
  bool has_threads = false;
  int threads = 0;
  AlgoParams params;
  /// Planner constraints ("auto" only; 0 = unset).
  double latency_budget_ms = 0.0;
  double quality_target = 0.0;
  /// Allow warm-started re-solves from the session's previous solution.
  bool warm_start = true;
};

/// One appended row. `cats` preserves the request's member order (including
/// duplicates — the last occurrence wins, matching JSON object semantics).
/// A non-string label parses (label_is_string = false) and is rejected by
/// the service after the column lookup, preserving the original check
/// order.
struct InsertRequest {
  std::vector<double> point;
  struct CatEntry {
    std::string column;
    std::string label;
    bool label_is_string = true;
  };
  bool has_cats = false;
  std::vector<CatEntry> cats;
  enum class Group { kDerive, kId, kName };
  Group group = Group::kDerive;
  int64_t group_id = -1;
  std::string group_name;
};

struct DeleteRequest {
  std::vector<int64_t> rows;
};

struct RegisterRequest {
  std::string name;
  enum class Source { kSynthetic, kSnapshot };
  Source source = Source::kSynthetic;
  std::string snapshot_path;
  std::string synthetic;  ///< Generator family.
  int64_t n = 0;
  int64_t dim = 4;
  bool has_seed = false;
  uint64_t seed = 0;
  std::string normalize = "minmax";
  bool has_group_by = false;
  std::vector<std::string> group_by;
  int64_t groups = 1;
};

struct SaveRequest {
  std::string name;
  std::string path;
};

struct DropRequest {
  std::string name;
};

/// One parsed request line. `id` holds the rendered response token for the
/// line's "id" field (`"x"` quoted-escaped for strings, %.17g for numbers)
/// or is empty when absent / non-scalar — the transport then substitutes
/// the 1-based line number. Exactly one op-specific member is meaningful,
/// selected by `op`.
struct Request {
  ProtocolOp op = ProtocolOp::kQuery;
  std::string id;
  std::string dataset = "default";
  QueryRequest query;
  InsertRequest insert;
  DeleteRequest erase;
  RegisterRequest reg;
  SaveRequest save;
  DropRequest drop;
};

/// Structural parse of one request line (an already-parsed JSON object).
/// Fills `out->id` before any validation, so rejected lines still echo
/// their id. State-dependent checks (unknown dataset, group lookups,
/// dimension mismatches) are left to the service.
Status ParseRequest(const JsonValue& line, Request* out);

/// The response id token for a raw request line — the same rule
/// ParseRequest applies (quoted string / %.17g number / the line number
/// when absent or non-scalar, or when the line is not a JSON object). For
/// transports that must answer a line they never hand to the service
/// (rate limits, queue deadlines, drain).
std::string RenderRequestId(std::string_view line, uint64_t line_no);

// ---------------------------------------------------------------------------
// Responses.

struct QueryResponse {
  std::string algorithm;
  int k = 0;
  uint64_t seed = 0;
  int threads = 0;
  std::vector<int> rows;
  double happiness_ratio = 0.0;
  double algo_mhr_estimate = 0.0;
  int violations = 0;
  std::vector<int> group_counts;
  std::string note;  ///< Omitted from the wire when empty.
  /// Planner echo ("algorithm": "auto" requests only): rendered as a
  /// "plan" object carrying the choice, the model's prediction and the
  /// actual solve time side by side. Omitted when planned == false.
  bool planned = false;
  double predicted_ms = -1.0;
  double predicted_hr = -1.0;
  std::string plan_reason;
  std::string plan_params;  ///< Params the planner set; "" = none.
  /// The solve was warm-started from the session's previous solution.
  /// Rendered only when true (bit-identity makes it purely diagnostic).
  bool warm_start = false;
  double solve_ms = 0.0;
  double total_ms = 0.0;
};

struct InsertResponse {
  int row = 0;
  int group = 0;
  std::string group_name;
  uint64_t version = 0;
  uint64_t live_rows = 0;
};

struct DeleteResponse {
  uint64_t erased = 0;
  uint64_t version = 0;
  uint64_t live_rows = 0;
};

struct RegisterResponse {
  std::string name;
  uint64_t rows = 0;
  int dim = 0;
  int groups = 0;
};

struct SaveResponse {
  std::string name;
  std::string path;
};

struct DropResponse {
  std::string name;
};

struct ListResponse {
  std::vector<std::string> datasets;
};

/// The `stats` op payload: catalog contents, per-session cache accounting,
/// the CacheArbiter's global ledger and the service's latency counters —
/// identical from `--queries` batch mode and the daemon.
struct StatsResponse {
  struct DatasetStats {
    std::string name;
    uint64_t live_rows = 0;
    uint64_t total_rows = 0;
    int dim = 0;
    int groups = 0;
    uint64_t version = 0;
    /// Dataset::CoordBytes(): the table's resident per-row storage.
    uint64_t coord_bytes = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_bytes = 0;
    /// Per-artifact-class cache accounting (nets, evaluators, skylines,
    /// ...), in the session's fixed class order — the observable the
    /// planner's cache-warmth signal derives from.
    struct CacheClassStats {
      std::string name;
      uint64_t hits = 0;
      uint64_t misses = 0;
      uint64_t bytes = 0;
    };
    std::vector<CacheClassStats> cache_classes;
  };
  struct OpStats {
    ProtocolOp op = ProtocolOp::kQuery;
    uint64_t count = 0;
    uint64_t errors = 0;
    double total_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  std::vector<DatasetStats> datasets;
  uint64_t cache_budget_bytes = 0;
  uint64_t cache_total_bytes = 0;
  uint64_t cache_evictions = 0;
  /// The CacheArbiter's per-session ledger (charged bytes + logical
  /// last-touch tick), sorted by session name.
  struct CacheSessionStats {
    std::string name;
    uint64_t charged_bytes = 0;
    uint64_t last_touch = 0;
  };
  std::vector<CacheSessionStats> cache_sessions;
  uint64_t served = 0;
  uint64_t failed = 0;
  double uptime_ms = 0.0;
  double qps = 0.0;
  /// Active SIMD dispatch level ("scalar", "sse2", "avx2", "neon") and
  /// requested mode ("auto", "off") of the kernel layer (common/simd.h).
  /// Host-dependent: golden tests scrub both.
  std::string simd_level;
  std::string simd_mode;
  std::vector<OpStats> ops;  ///< Ops with a nonzero count only.
};

/// One response line before envelope rendering. `id` is the rendered token
/// (never empty — the transport substituted the line number already).
struct Response {
  std::string id;
  bool ok = false;
  ProtocolOp op = ProtocolOp::kQuery;
  /// Dataset label for the envelope; empty = omitted (list/stats).
  std::string dataset;
  bool has_catalog_version = false;
  uint64_t catalog_version = 0;
  /// Linearization sequence number (see EnvelopeOptions::emit_seq).
  bool has_seq = false;
  uint64_t seq = 0;
  Status error;  ///< Meaningful when !ok.
  // Exactly one payload is meaningful when ok, selected by `op`.
  QueryResponse query;
  InsertResponse insert;
  DeleteResponse erase;
  RegisterResponse reg;
  SaveResponse save;
  DropResponse drop;
  ListResponse list;
  StatsResponse stats;
};

/// The defaults are the one envelope there is: RenderResponse never reads
/// `version`, and nothing sets `emit_seq` to false. Both members stay only
/// because the benchmark's replay (perfbench/replay.cc) assigns them;
/// remove them together with those assignments.
struct EnvelopeOptions {
  int version = kProtocolVersion;
  /// Stamp Response::seq as "seq" when has_seq is set.
  bool emit_seq = true;
};

/// Renders one response line (no trailing newline). Deterministic: equal
/// inputs yield equal bytes.
std::string RenderResponse(const Response& response,
                           const EnvelopeOptions& envelope);

/// Renders an error response for a line whose id is already known —
/// convenience for transports rejecting work before parsing completes
/// (rate limits, queue deadlines, drain).
std::string RenderErrorLine(const std::string& id, const Status& error,
                            const EnvelopeOptions& envelope);

}  // namespace fairhms

#endif  // FAIRHMS_API_PROTOCOL_H_
