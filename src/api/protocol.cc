#include "api/protocol.h"

#include <utility>

#include "api/registry.h"
#include "common/string_util.h"

namespace fairhms {

namespace {

/// Fills AlgoParams from the query's "params" object, using the algorithm's
/// schema for int/double disambiguation; keys or types the schema does not
/// know are set by their JSON type so Solver validation reports them with
/// the uniform messages.
Status ParamsFromJson(const JsonValue& params, const AlgorithmInfo* info,
                      AlgoParams* out) {
  if (!params.is_object()) {
    return Status::InvalidArgument("\"params\" must be an object");
  }
  for (const auto& [name, value] : params.members()) {
    const ParamSpec* spec = nullptr;
    if (info != nullptr) {
      for (const ParamSpec& candidate : info->params) {
        if (candidate.name == name) spec = &candidate;
      }
    }
    if (spec != nullptr && value.is_number()) {
      if (spec->type == ParamType::kInt) {
        FAIRHMS_ASSIGN_OR_RETURN(const int64_t v, value.AsInt64());
        out->SetInt(name, v);
      } else {
        out->SetDouble(name, value.number_value());
      }
      continue;
    }
    switch (value.kind()) {
      case JsonValue::Kind::kBool:
        out->SetBool(name, value.bool_value());
        break;
      case JsonValue::Kind::kString:
        out->SetString(name, value.string_value());
        break;
      case JsonValue::Kind::kNumber: {
        const auto as_int = value.AsInt64();
        if (as_int.ok()) {
          out->SetInt(name, *as_int);
        } else {
          out->SetDouble(name, value.number_value());
        }
        break;
      }
      default:
        return Status::InvalidArgument(StrFormat(
            "parameter '%s' must be a number, boolean or string",
            name.c_str()));
    }
  }
  return Status::OK();
}

Status ParseQuery(const JsonValue& line, QueryRequest* out) {
  const JsonValue* algo = line.Find("algorithm");
  if (algo == nullptr) algo = line.Find("algo");
  if (algo == nullptr || !algo->is_string()) {
    return Status::InvalidArgument(
        "each query needs a string \"algorithm\" field");
  }
  out->algorithm = algo->string_value();
  const JsonValue* k_field = line.Find("k");
  if (k_field == nullptr) {
    return Status::InvalidArgument("each query needs an integer \"k\" field");
  }
  FAIRHMS_ASSIGN_OR_RETURN(const int64_t k64, k_field->AsInt64());
  if (k64 < 1 || k64 > 1'000'000) {
    return Status::InvalidArgument(
        StrFormat("k must be in [1, 1000000], got %lld",
                  static_cast<long long>(k64)));
  }
  out->k = static_cast<int>(k64);
  if (const JsonValue* s = line.Find("seed"); s != nullptr) {
    FAIRHMS_ASSIGN_OR_RETURN(const int64_t seed, s->AsInt64());
    if (seed < 0) return Status::InvalidArgument("\"seed\" must be >= 0");
    out->has_seed = true;
    out->seed = static_cast<uint64_t>(seed);
  }
  if (const JsonValue* t = line.Find("threads"); t != nullptr) {
    FAIRHMS_ASSIGN_OR_RETURN(const int64_t threads, t->AsInt64());
    // Range-check before narrowing so huge values fail like the flag does
    // instead of wrapping into the valid range.
    if (threads < 0 || threads > 4096) {
      return Status::InvalidArgument(StrFormat(
          "\"threads\" must be in [0, 4096] (0 = all hardware threads), "
          "got %lld", static_cast<long long>(threads)));
    }
    out->has_threads = true;
    out->threads = static_cast<int>(threads);
  }
  // Bounds: structural checks here; construction against the live group
  // counts happens in the service.
  std::string kind = "proportional";
  if (const JsonValue* b = line.Find("bounds"); b != nullptr) {
    if (!b->is_string()) {
      return Status::InvalidArgument("\"bounds\" must be a string");
    }
    kind = b->string_value();
  }
  if (const JsonValue* a = line.Find("alpha"); a != nullptr) {
    if (!a->is_number()) {
      return Status::InvalidArgument("\"alpha\" must be a number");
    }
    out->alpha = a->number_value();
  }
  if (kind == "proportional") {
    out->bounds = QueryRequest::Bounds::kProportional;
  } else if (kind == "balanced") {
    out->bounds = QueryRequest::Bounds::kBalanced;
  } else if (kind == "explicit") {
    out->bounds = QueryRequest::Bounds::kExplicit;
    auto int_list = [&line](const char* key) -> StatusOr<std::vector<int>> {
      const JsonValue* v = line.Find(key);
      if (v == nullptr || !v->is_array()) {
        return Status::InvalidArgument(StrFormat(
            "explicit bounds need an integer array \"%s\"", key));
      }
      std::vector<int> out;
      for (const JsonValue& item : v->items()) {
        FAIRHMS_ASSIGN_OR_RETURN(const int64_t value, item.AsInt64());
        out.push_back(static_cast<int>(value));
      }
      return out;
    };
    FAIRHMS_ASSIGN_OR_RETURN(out->lower, int_list("lower"));
    FAIRHMS_ASSIGN_OR_RETURN(out->upper, int_list("upper"));
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown \"bounds\" kind '%s' (want proportional, balanced "
                  "or explicit)", kind.c_str()));
  }
  if (const JsonValue* params = line.Find("params"); params != nullptr) {
    FAIRHMS_RETURN_IF_ERROR(ParamsFromJson(
        *params, AlgorithmRegistry::Instance().Find(out->algorithm),
        &out->params));
  }
  if (const JsonValue* budget = line.Find("latency_budget_ms");
      budget != nullptr) {
    if (!budget->is_number() || budget->number_value() < 0.0) {
      return Status::InvalidArgument(
          "\"latency_budget_ms\" must be a number >= 0");
    }
    out->latency_budget_ms = budget->number_value();
  }
  if (const JsonValue* target = line.Find("quality_target");
      target != nullptr) {
    if (!target->is_number() || target->number_value() < 0.0 ||
        target->number_value() > 1.0) {
      return Status::InvalidArgument(
          "\"quality_target\" must be a number in [0, 1]");
    }
    out->quality_target = target->number_value();
  }
  if (const JsonValue* warm = line.Find("warm_start"); warm != nullptr) {
    if (!warm->is_bool()) {
      return Status::InvalidArgument("\"warm_start\" must be a boolean");
    }
    out->warm_start = warm->bool_value();
  }
  return Status::OK();
}

Status ParseInsert(const JsonValue& line, InsertRequest* out) {
  const JsonValue* point = line.Find("point");
  if (point == nullptr || !point->is_array()) {
    return Status::InvalidArgument(
        "insert needs a \"point\" array of numeric attributes");
  }
  for (const JsonValue& v : point->items()) {
    if (!v.is_number()) {
      return Status::InvalidArgument("\"point\" entries must be numbers");
    }
    out->point.push_back(v.number_value());
  }
  if (const JsonValue* cats = line.Find("cats"); cats != nullptr) {
    if (!cats->is_object()) {
      return Status::InvalidArgument(
          "\"cats\" must be an object mapping column names to labels");
    }
    out->has_cats = true;
    for (const auto& [name, value] : cats->members()) {
      InsertRequest::CatEntry entry;
      entry.column = name;
      entry.label_is_string = value.is_string();
      if (entry.label_is_string) entry.label = value.string_value();
      out->cats.push_back(std::move(entry));
    }
  }
  if (const JsonValue* g = line.Find("group"); g != nullptr) {
    if (g->is_string()) {
      out->group = InsertRequest::Group::kName;
      out->group_name = g->string_value();
    } else {
      FAIRHMS_ASSIGN_OR_RETURN(out->group_id, g->AsInt64());
      out->group = InsertRequest::Group::kId;
    }
  }
  return Status::OK();
}

Status ParseDelete(const JsonValue& line, DeleteRequest* out) {
  const JsonValue* rows_field = line.Find("rows");
  if (rows_field == nullptr || !rows_field->is_array()) {
    return Status::InvalidArgument(
        "delete needs a \"rows\" array of row indices");
  }
  for (const JsonValue& v : rows_field->items()) {
    FAIRHMS_ASSIGN_OR_RETURN(const int64_t row, v.AsInt64());
    out->rows.push_back(row);
  }
  return Status::OK();
}

Status ParseRegister(const JsonValue& line, RegisterRequest* out) {
  const JsonValue* name_field = line.Find("name");
  if (name_field == nullptr || !name_field->is_string()) {
    return Status::InvalidArgument("register needs a string \"name\"");
  }
  out->name = name_field->string_value();
  const JsonValue* snap = line.Find("snapshot");
  const JsonValue* syn = line.Find("synthetic");
  if (snap != nullptr && syn != nullptr) {
    return Status::InvalidArgument(
        "register takes \"snapshot\" or \"synthetic\", not both");
  }
  if (snap != nullptr) {
    if (!snap->is_string()) {
      return Status::InvalidArgument("\"snapshot\" must be a path string");
    }
    out->source = RegisterRequest::Source::kSnapshot;
    out->snapshot_path = snap->string_value();
    return Status::OK();
  }
  if (syn == nullptr || !syn->is_string()) {
    return Status::InvalidArgument(
        "register needs a string \"synthetic\" (generator family) or "
        "\"snapshot\" (file path) source");
  }
  out->source = RegisterRequest::Source::kSynthetic;
  out->synthetic = syn->string_value();
  if (const JsonValue* v = line.Find("n"); v != nullptr) {
    FAIRHMS_ASSIGN_OR_RETURN(out->n, v->AsInt64());
  }
  if (const JsonValue* v = line.Find("dim"); v != nullptr) {
    FAIRHMS_ASSIGN_OR_RETURN(out->dim, v->AsInt64());
  }
  if (const JsonValue* v = line.Find("seed"); v != nullptr) {
    FAIRHMS_ASSIGN_OR_RETURN(const int64_t s, v->AsInt64());
    if (s < 0) return Status::InvalidArgument("\"seed\" must be >= 0");
    out->has_seed = true;
    out->seed = static_cast<uint64_t>(s);
  }
  if (const JsonValue* v = line.Find("normalize"); v != nullptr) {
    if (!v->is_string()) {
      return Status::InvalidArgument("\"normalize\" must be a string");
    }
    out->normalize = v->string_value();
  }
  if (const JsonValue* gb = line.Find("group_by"); gb != nullptr) {
    if (!gb->is_array()) {
      return Status::InvalidArgument(
          "\"group_by\" must be an array of categorical column names");
    }
    out->has_group_by = true;
    for (const JsonValue& item : gb->items()) {
      if (!item.is_string()) {
        return Status::InvalidArgument(
            "\"group_by\" entries must be column-name strings");
      }
      out->group_by.push_back(item.string_value());
    }
  } else if (const JsonValue* v = line.Find("groups"); v != nullptr) {
    // Only consulted without "group_by" (which takes precedence), so a
    // malformed "groups" next to a "group_by" stays ignored.
    FAIRHMS_ASSIGN_OR_RETURN(out->groups, v->AsInt64());
  }
  return Status::OK();
}

Status ParseName(const JsonValue& line, const char* op, std::string* name) {
  const JsonValue* name_field = line.Find("name");
  if (name_field == nullptr || !name_field->is_string()) {
    return Status::InvalidArgument(
        StrFormat("%s needs a string \"name\"", op));
  }
  *name = name_field->string_value();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Rendering.

std::string RenderIntList(const std::vector<int>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StrFormat("%s%d", i == 0 ? "" : ", ", values[i]);
  }
  out += "]";
  return out;
}

std::string RenderQueryBody(const QueryResponse& r) {
  std::string out = StrFormat(
      "\"algorithm\": \"%s\", \"k\": %d, \"seed\": %llu, \"threads\": %d, "
      "\"solution_size\": %zu, \"rows\": ",
      JsonEscape(r.algorithm).c_str(), r.k,
      static_cast<unsigned long long>(r.seed), r.threads, r.rows.size());
  out += RenderIntList(r.rows);
  out += StrFormat(
      ", \"happiness_ratio\": %.17g, \"algo_mhr_estimate\": %.17g, "
      "\"violations\": %d, \"group_counts\": ",
      r.happiness_ratio, r.algo_mhr_estimate, r.violations);
  out += RenderIntList(r.group_counts);
  if (!r.note.empty()) {
    out += StrFormat(", \"note\": \"%s\"", JsonEscape(r.note).c_str());
  }
  if (r.planned) {
    // Prediction and actual cost side by side, so clients can judge the
    // model without correlating fields across the payload.
    out += StrFormat(
        ", \"plan\": {\"requested\": \"auto\", \"algorithm\": \"%s\", "
        "\"predicted_ms\": %.3f, \"predicted_hr\": %.17g, "
        "\"actual_ms\": %.3f, \"reason\": \"%s\"",
        JsonEscape(r.algorithm).c_str(), r.predicted_ms, r.predicted_hr,
        r.solve_ms, JsonEscape(r.plan_reason).c_str());
    if (!r.plan_params.empty()) {
      out += StrFormat(", \"params\": \"%s\"",
                       JsonEscape(r.plan_params).c_str());
    }
    out += "}";
  }
  if (r.warm_start) out += ", \"warm_start\": true";
  out += StrFormat(", \"solve_ms\": %.3f, \"total_ms\": %.3f", r.solve_ms,
                   r.total_ms);
  return out;
}

std::string RenderInsertBody(const InsertResponse& r) {
  return StrFormat(
      "\"op\": \"insert\", \"row\": %d, \"group\": %d, "
      "\"group_name\": \"%s\", \"version\": %llu, \"live_rows\": %zu",
      r.row, r.group, JsonEscape(r.group_name).c_str(),
      static_cast<unsigned long long>(r.version),
      static_cast<size_t>(r.live_rows));
}

std::string RenderDeleteBody(const DeleteResponse& r) {
  return StrFormat(
      "\"op\": \"delete\", \"erased\": %zu, \"version\": %llu, "
      "\"live_rows\": %zu",
      static_cast<size_t>(r.erased),
      static_cast<unsigned long long>(r.version),
      static_cast<size_t>(r.live_rows));
}

std::string RenderRegisterBody(const RegisterResponse& r) {
  return StrFormat(
      "\"op\": \"register\", \"name\": \"%s\", \"rows\": %zu, \"dim\": %d, "
      "\"groups\": %d",
      JsonEscape(r.name).c_str(), static_cast<size_t>(r.rows), r.dim,
      r.groups);
}

std::string RenderSaveBody(const SaveResponse& r) {
  return StrFormat("\"op\": \"save\", \"name\": \"%s\", \"path\": \"%s\"",
                   JsonEscape(r.name).c_str(), JsonEscape(r.path).c_str());
}

std::string RenderDropBody(const DropResponse& r) {
  return StrFormat("\"op\": \"drop\", \"name\": \"%s\"",
                   JsonEscape(r.name).c_str());
}

std::string RenderListBody(const ListResponse& r) {
  std::string out = "\"op\": \"list\", \"datasets\": [";
  bool first = true;
  for (const std::string& name : r.datasets) {
    out += StrFormat("%s\"%s\"", first ? "" : ", ",
                     JsonEscape(name).c_str());
    first = false;
  }
  out += "]";
  return out;
}

std::string RenderStatsBody(const StatsResponse& r) {
  std::string out = StrFormat(
      "\"op\": \"stats\", \"uptime_ms\": %.3f, \"served\": %llu, "
      "\"failed\": %llu, \"qps\": %.3f, "
      "\"simd_level\": \"%s\", \"simd_mode\": \"%s\", \"datasets\": [",
      r.uptime_ms, static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.failed), r.qps,
      JsonEscape(r.simd_level).c_str(), JsonEscape(r.simd_mode).c_str());
  for (size_t i = 0; i < r.datasets.size(); ++i) {
    const StatsResponse::DatasetStats& d = r.datasets[i];
    out += StrFormat(
        "%s{\"name\": \"%s\", \"live_rows\": %llu, \"rows\": %llu, "
        "\"dim\": %d, \"groups\": %d, \"version\": %llu, "
        "\"coord_bytes\": %llu, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, \"cache_bytes\": %llu",
        i == 0 ? "" : ", ", JsonEscape(d.name).c_str(),
        static_cast<unsigned long long>(d.live_rows),
        static_cast<unsigned long long>(d.total_rows), d.dim, d.groups,
        static_cast<unsigned long long>(d.version),
        static_cast<unsigned long long>(d.coord_bytes),
        static_cast<unsigned long long>(d.cache_hits),
        static_cast<unsigned long long>(d.cache_misses),
        static_cast<unsigned long long>(d.cache_bytes));
    if (!d.cache_classes.empty()) {
      out += ", \"cache_classes\": {";
      for (size_t c = 0; c < d.cache_classes.size(); ++c) {
        const auto& cls = d.cache_classes[c];
        out += StrFormat(
            "%s\"%s\": {\"hits\": %llu, \"misses\": %llu, \"bytes\": %llu}",
            c == 0 ? "" : ", ", JsonEscape(cls.name).c_str(),
            static_cast<unsigned long long>(cls.hits),
            static_cast<unsigned long long>(cls.misses),
            static_cast<unsigned long long>(cls.bytes));
      }
      out += "}";
    }
    out += "}";
  }
  out += StrFormat(
      "], \"cache\": {\"budget_bytes\": %llu, \"total_bytes\": %llu, "
      "\"evictions\": %llu, \"sessions\": [",
      static_cast<unsigned long long>(r.cache_budget_bytes),
      static_cast<unsigned long long>(r.cache_total_bytes),
      static_cast<unsigned long long>(r.cache_evictions));
  for (size_t i = 0; i < r.cache_sessions.size(); ++i) {
    const StatsResponse::CacheSessionStats& s = r.cache_sessions[i];
    out += StrFormat(
        "%s{\"name\": \"%s\", \"charged_bytes\": %llu, \"last_touch\": %llu}",
        i == 0 ? "" : ", ", JsonEscape(s.name).c_str(),
        static_cast<unsigned long long>(s.charged_bytes),
        static_cast<unsigned long long>(s.last_touch));
  }
  out += "]}, \"ops\": [";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const StatsResponse::OpStats& o = r.ops[i];
    out += StrFormat(
        "%s{\"op\": \"%s\", \"count\": %llu, \"errors\": %llu, "
        "\"total_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
        i == 0 ? "" : ", ", ProtocolOpName(o.op),
        static_cast<unsigned long long>(o.count),
        static_cast<unsigned long long>(o.errors), o.total_ms, o.p50_ms,
        o.p99_ms);
  }
  out += "]";
  return out;
}

std::string RenderBody(const Response& r) {
  switch (r.op) {
    case ProtocolOp::kQuery:
      return RenderQueryBody(r.query);
    case ProtocolOp::kInsert:
      return RenderInsertBody(r.insert);
    case ProtocolOp::kDelete:
      return RenderDeleteBody(r.erase);
    case ProtocolOp::kRegister:
      return RenderRegisterBody(r.reg);
    case ProtocolOp::kSave:
      return RenderSaveBody(r.save);
    case ProtocolOp::kDrop:
      return RenderDropBody(r.drop);
    case ProtocolOp::kList:
      return RenderListBody(r.list);
    case ProtocolOp::kStats:
      return RenderStatsBody(r.stats);
  }
  return std::string();
}

/// The versioned-envelope prefix after "ok": protocol_version and, when
/// enabled, the linearization sequence number.
std::string VersionedPrefix(const Response& r, const EnvelopeOptions& env) {
  std::string out = StrFormat("\"protocol_version\": %d, ", kProtocolVersion);
  if (env.emit_seq && r.has_seq) {
    out += StrFormat("\"seq\": %llu, ",
                     static_cast<unsigned long long>(r.seq));
  }
  return out;
}

}  // namespace

const char* ProtocolOpName(ProtocolOp op) {
  switch (op) {
    case ProtocolOp::kQuery:
      return "query";
    case ProtocolOp::kInsert:
      return "insert";
    case ProtocolOp::kDelete:
      return "delete";
    case ProtocolOp::kRegister:
      return "register";
    case ProtocolOp::kSave:
      return "save";
    case ProtocolOp::kDrop:
      return "drop";
    case ProtocolOp::kList:
      return "list";
    case ProtocolOp::kStats:
      return "stats";
  }
  return "unknown";
}

namespace {

/// The rendered id token of a parsed line, or "" when absent / non-scalar.
std::string IdToken(const JsonValue& line) {
  if (const JsonValue* id_field = line.Find("id"); id_field != nullptr) {
    if (id_field->is_string()) {
      return "\"" + JsonEscape(id_field->string_value()) + "\"";
    }
    if (id_field->is_number()) {
      return StrFormat("%.17g", id_field->number_value());
    }
  }
  return std::string();
}

}  // namespace

std::string RenderRequestId(std::string_view line, uint64_t line_no) {
  std::string id;
  if (auto parsed = ParseJson(line); parsed.ok() && parsed->is_object()) {
    id = IdToken(*parsed);
  }
  if (id.empty()) {
    id = StrFormat("%llu", static_cast<unsigned long long>(line_no));
  }
  return id;
}

Status ParseRequest(const JsonValue& line, Request* out) {
  // The id is extracted before anything can fail, so rejected lines still
  // echo it. Non-scalar ids fall back to the transport's line number.
  out->id = IdToken(line);
  std::string op = "query";
  if (const JsonValue* op_field = line.Find("op"); op_field != nullptr) {
    // A non-string op forces the unknown-op error below.
    op = op_field->is_string() ? op_field->string_value() : std::string();
  }
  // The dataset-type check outranks the unknown-op error (legacy
  // precedence: routing is validated before dispatch).
  if (const JsonValue* d = line.Find("dataset"); d != nullptr) {
    if (!d->is_string()) {
      return Status::InvalidArgument(
          "\"dataset\" must be a string (a catalog name)");
    }
    out->dataset = d->string_value();
  }
  if (op == "query" || op == "solve") {
    out->op = ProtocolOp::kQuery;
    return ParseQuery(line, &out->query);
  }
  if (op == "insert") {
    out->op = ProtocolOp::kInsert;
    return ParseInsert(line, &out->insert);
  }
  if (op == "delete") {
    out->op = ProtocolOp::kDelete;
    return ParseDelete(line, &out->erase);
  }
  if (op == "register") {
    out->op = ProtocolOp::kRegister;
    return ParseRegister(line, &out->reg);
  }
  if (op == "save") {
    out->op = ProtocolOp::kSave;
    FAIRHMS_RETURN_IF_ERROR(ParseName(line, "save", &out->save.name));
    const JsonValue* path_field = line.Find("path");
    if (path_field == nullptr || !path_field->is_string()) {
      return Status::InvalidArgument("save needs a string \"path\"");
    }
    out->save.path = path_field->string_value();
    return Status::OK();
  }
  if (op == "drop") {
    out->op = ProtocolOp::kDrop;
    return ParseName(line, "drop", &out->drop.name);
  }
  if (op == "list") {
    out->op = ProtocolOp::kList;
    return Status::OK();
  }
  if (op == "stats") {
    out->op = ProtocolOp::kStats;
    return Status::OK();
  }
  return Status::InvalidArgument(StrFormat(
      "unknown \"op\" '%s' (want query, insert, delete, register, "
      "save, drop, list or stats)",
      op.c_str()));
}

std::string RenderResponse(const Response& response,
                           const EnvelopeOptions& envelope) {
  if (!response.ok) {
    if (envelope.version == 0) {
      return StrFormat("{\"id\": %s, \"ok\": false, \"error\": \"%s\"}",
                       response.id.c_str(),
                       JsonEscape(response.error.ToString()).c_str());
    }
    std::string out = StrFormat("{\"id\": %s, \"ok\": false, ",
                                response.id.c_str());
    out += VersionedPrefix(response, envelope);
    if (!response.dataset.empty()) {
      out += StrFormat("\"dataset\": \"%s\", ",
                       JsonEscape(response.dataset).c_str());
    }
    out += StrFormat(
        "\"error\": {\"code\": \"%s\", \"message\": \"%s\"}}",
        StatusCodeToString(response.error.code()),
        JsonEscape(response.error.message()).c_str());
    return out;
  }
  std::string out = StrFormat("{\"id\": %s, \"ok\": true, ",
                              response.id.c_str());
  if (envelope.version != 0) out += VersionedPrefix(response, envelope);
  if (!response.dataset.empty()) {
    out += StrFormat("\"dataset\": \"%s\", ",
                     JsonEscape(response.dataset).c_str());
  }
  if (response.has_catalog_version) {
    out += StrFormat("\"catalog_version\": %llu, ",
                     static_cast<unsigned long long>(
                         response.catalog_version));
  }
  out += RenderBody(response);
  out += "}";
  return out;
}

std::string RenderErrorLine(const std::string& id, const Status& error,
                            const EnvelopeOptions& envelope) {
  Response response;
  response.id = id;
  response.ok = false;
  response.error = error;
  return RenderResponse(response, envelope);
}

}  // namespace fairhms
