#include "api/session.h"

#include <cmath>
#include <cstdlib>
#include <utility>
#include <variant>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "plan/planner.h"

namespace fairhms {

namespace internal {

Status ValidateRequestShape(const SolverRequest& req,
                            const AlgorithmInfo** info_out,
                            ArtifactCache* cache) {
  if (req.data == nullptr) {
    return Status::InvalidArgument("request.data must not be null");
  }
  if (req.grouping == nullptr) {
    return Status::InvalidArgument("request.grouping must not be null");
  }
  if (req.data->size() == 0) {
    return Status::InvalidArgument("request.data must not be empty");
  }
  if (req.data->live_size() == 0) {
    return Status::InvalidArgument(
        "request.data has no live rows (everything was erased)");
  }
  if (req.grouping->group_of.size() != req.data->size()) {
    return Status::InvalidArgument(
        StrFormat("grouping covers %zu rows but the dataset has %zu",
                  req.grouping->group_of.size(), req.data->size()));
  }
  if (req.bounds.k <= 0) {
    return Status::InvalidArgument(
        StrFormat("k must be >= 1, got %d", req.bounds.k));
  }
  if (req.bounds.num_groups() != req.grouping->num_groups) {
    return Status::InvalidArgument(
        StrFormat("bounds list %d groups but the grouping has %d",
                  req.bounds.num_groups(), req.grouping->num_groups));
  }
  if (req.threads < 0 || req.threads > 4096) {
    return Status::InvalidArgument(StrFormat(
        "threads must be in [0, 4096] (0 = all hardware threads), got %d",
        req.threads));
  }
  if (req.algorithm == "auto") {
    // Planner placeholder: SolverSession::Solve rewrites it to a concrete
    // registry name (plan/planner.h) and re-validates, so the algorithm-
    // specific checks (schema, exact-2D dimension) run against the actual
    // choice. Only the algorithm-independent checks apply here.
    FAIRHMS_RETURN_IF_ERROR(req.bounds.Validate(
        *GetOrComputeGroupCounts(cache, *req.data, *req.grouping),
        &req.grouping->names));
    if (info_out != nullptr) *info_out = nullptr;
    return Status::OK();
  }
  const AlgorithmRegistry& registry = AlgorithmRegistry::Instance();
  const AlgorithmInfo* info = registry.Find(req.algorithm);
  if (info == nullptr) {
    if (req.algorithm.empty()) {
      return Status::InvalidArgument(StrFormat(
          "no algorithm requested (valid: %s)",
          registry.NamesForError().c_str()));
    }
    return Status::InvalidArgument(
        StrFormat("unknown algorithm '%s' (valid: %s)", req.algorithm.c_str(),
                  registry.NamesForError().c_str()));
  }
  if (info->caps.exact_2d && req.data->dim() < 2) {
    return Status::InvalidArgument(StrFormat(
        "%s needs at least 2 numeric attributes", info->name.c_str()));
  }
  FAIRHMS_RETURN_IF_ERROR(
      ValidateParams(info->name, info->params, req.params));
  FAIRHMS_RETURN_IF_ERROR(req.bounds.Validate(
      *GetOrComputeGroupCounts(cache, *req.data, *req.grouping),
      &req.grouping->names));
  if (info_out != nullptr) *info_out = info;
  return Status::OK();
}

}  // namespace internal

namespace {

/// How much of the solution the lower bounds pin down, in [0, 1]. The
/// cost-model signature and the planner both bucket on this.
double BoundsTightness(const GroupBounds& bounds) {
  if (bounds.k <= 0) return 0.0;
  long long lower_sum = 0;
  for (const int lo : bounds.lower) lower_sum += lo;
  double t = static_cast<double>(lower_sum) / static_cast<double>(bounds.k);
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  return t;
}

/// Deterministic fingerprint of a params bag; warm-start memos compare it
/// so a hint never crosses a parameter change.
std::string ParamsFingerprint(const AlgoParams& params) {
  std::string out;
  for (const auto& [key, value] : params.values()) {
    out += key;
    out += '=';
    if (const auto* i = std::get_if<int64_t>(&value)) {
      out += StrFormat("i%lld", static_cast<long long>(*i));
    } else if (const auto* d = std::get_if<double>(&value)) {
      out += StrFormat("d%.17g", *d);
    } else if (const auto* b = std::get_if<bool>(&value)) {
      out += *b ? "b1" : "b0";
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      out += 's';
      out += *s;
    }
    out += ';';
  }
  return out;
}

}  // namespace

SolverSession::SolverSession(const Dataset* data, const Grouping* grouping)
    : data_(data),
      grouping_(grouping),
      cache_(new ArtifactCache()),
      cost_model_(new CostModel()),
      warm_mu_(new Mutex()),
      projection_mu_(new Mutex()) {}

StatusOr<SolverSession> SolverSession::Create(const Dataset* data,
                                              const Grouping* grouping) {
  if (data == nullptr) {
    return Status::InvalidArgument("request.data must not be null");
  }
  if (grouping == nullptr) {
    return Status::InvalidArgument("request.grouping must not be null");
  }
  if (data->size() == 0) {
    return Status::InvalidArgument("request.data must not be empty");
  }
  if (grouping->group_of.size() != data->size()) {
    return Status::InvalidArgument(
        StrFormat("grouping covers %zu rows but the dataset has %zu",
                  grouping->group_of.size(), data->size()));
  }
  return SolverSession(data, grouping);
}

StatusOr<SolverSession> SolverSession::CreateDynamic(
    Dataset* data, Grouping* grouping,
    const std::vector<std::string>& group_columns) {
  FAIRHMS_ASSIGN_OR_RETURN(SolverSession session, Create(data, grouping));
  session.mutable_data_ = data;
  session.mutable_grouping_ = grouping;
  for (const std::string& name : group_columns) {
    FAIRHMS_ASSIGN_OR_RETURN(int col, data->FindCategorical(name));
    session.group_cols_.push_back(col);
  }
  // The combo table and SkylineIndex are built lazily on the first actual
  // mutation (EnsureDynamicState): an update-free dynamic session costs
  // exactly what a static one does.
  return session;
}

StatusOr<SolverSession> SolverSession::RestoreDynamic(
    Dataset* data, Grouping* grouping,
    const std::vector<std::string>& group_columns,
    std::vector<std::pair<std::vector<int>, int>> combo_map,
    std::unique_ptr<SkylineIndex> index) {
  FAIRHMS_ASSIGN_OR_RETURN(SolverSession session,
                           CreateDynamic(data, grouping, group_columns));
  for (auto& [combo, group] : combo_map) {
    if (combo.size() != session.group_cols_.size()) {
      return Status::InvalidArgument(
          StrFormat("combination table entry has %zu values for %zu group "
                    "columns",
                    combo.size(), session.group_cols_.size()));
    }
    if (group < 0 || group >= grouping->num_groups) {
      return Status::InvalidArgument(
          StrFormat("combination table maps to group %d of %d", group,
                    grouping->num_groups));
    }
    auto [it, inserted] =
        session.combo_to_group_.emplace(std::move(combo), group);
    if (!inserted && it->second != group) {
      return Status::InvalidArgument(
          "combination table maps one combination to two groups");
    }
  }
  // An adopted index replaces the lazy build entirely: cache misses copy
  // from it from the first query on. Without one, the seeded combination
  // table simply gets revalidated and merged by the replay on the first
  // mutation.
  session.index_ = std::move(index);
  session.cache_->SetIndex(session.index_.get());
  return session;
}

Status SolverSession::EnsureIndex() {
  if (!dynamic()) {
    return Status::FailedPrecondition(
        "session is read-only; create it with SolverSession::CreateDynamic "
        "to maintain a skyline index");
  }
  return EnsureDynamicState();
}

std::vector<std::string> SolverSession::group_column_names() const {
  std::vector<std::string> names;
  names.reserve(group_cols_.size());
  for (int col : group_cols_) names.push_back(data_->categorical(col).name);
  return names;
}

std::vector<std::pair<std::vector<int>, int>> SolverSession::combo_map()
    const {
  return {combo_to_group_.begin(), combo_to_group_.end()};
}

Status SolverSession::EnsureDynamicState() {
  if (index_ != nullptr) return Status::OK();
  // Replay the pinned rows through the column mapping: existing rows both
  // seed the combination table and prove the grouping really is the one
  // the columns induce (a sum-rank grouping with --group_by columns would
  // silently misroute every insert).
  if (!group_cols_.empty()) {
    std::vector<int> combo(group_cols_.size());
    for (size_t i = 0; i < data_->size(); ++i) {
      for (size_t c = 0; c < group_cols_.size(); ++c) {
        combo[c] = data_->categorical(group_cols_[c]).codes[i];
      }
      const int g = grouping_->group_of[i];
      auto [it, inserted] = combo_to_group_.emplace(combo, g);
      if (!inserted && it->second != g) {
        combo_to_group_.clear();
        return Status::InvalidArgument(StrFormat(
            "grouping does not match the given group columns: row %zu maps "
            "to group %d but its column values map to group %d",
            i, g, it->second));
      }
    }
  }
  index_ = std::make_unique<SkylineIndex>(data_, grouping_);
  cache_->SetIndex(index_.get());
  return Status::OK();
}

std::vector<int> SolverSession::group_counts() {
  return *GetOrComputeGroupCounts(cache_.get(), *data_, *grouping_);
}

StatusOr<int> SolverSession::ResolveInsertGroup(
    const std::vector<int>& codes, int group) {
  if (!dynamic()) {
    return Status::FailedPrecondition(
        "session is read-only; create it with SolverSession::CreateDynamic "
        "to accept updates");
  }
  FAIRHMS_RETURN_IF_ERROR(EnsureDynamicState());
  // With pinned group columns the combination is always consulted — an
  // explicit id that contradicts it would break the columns-induce-the-
  // grouping invariant for every later derived insert.
  int combo_group = -1;  // The group the column values map to, if known.
  if (!group_cols_.empty()) {
    if (codes.size() != static_cast<size_t>(data_->num_categorical())) {
      return Status::InvalidArgument(StrFormat(
          "row has %zu categorical codes but the dataset has %d columns",
          codes.size(), data_->num_categorical()));
    }
    std::vector<int> combo;
    for (int col : group_cols_) combo.push_back(codes[static_cast<size_t>(col)]);
    auto it = combo_to_group_.find(combo);
    if (it != combo_to_group_.end()) combo_group = it->second;
  }
  if (group < 0) {
    if (!group_cols_.empty()) return combo_group;  // -1 = new group.
    if (grouping_->num_groups == 1) return 0;
    return Status::InvalidArgument(
        "the pinned grouping has no categorical provenance; pass an "
        "explicit group id");
  }
  if (group >= grouping_->num_groups) {
    return Status::InvalidArgument(
        StrFormat("group %d out of range (the grouping has %d groups)", group,
                  grouping_->num_groups));
  }
  if (combo_group >= 0 && combo_group != group) {
    return Status::InvalidArgument(StrFormat(
        "explicit group %d contradicts the pinned group columns, whose "
        "values map to group %d ('%s')",
        group, combo_group,
        grouping_->names[static_cast<size_t>(combo_group)].c_str()));
  }
  return group;
}

StatusOr<int> SolverSession::Insert(const std::vector<double>& coords,
                                    const std::vector<int>& codes,
                                    int group) {
  if (!dynamic()) {
    return Status::FailedPrecondition(
        "session is read-only; create it with SolverSession::CreateDynamic "
        "to accept updates");
  }
  // Resolve the target group before touching the table so a bad request
  // mutates nothing; -1 from the resolver means "new group from an unseen
  // combination", registered only after the append validates the row.
  FAIRHMS_ASSIGN_OR_RETURN(int g, ResolveInsertGroup(codes, group));
  std::vector<int> combo;
  for (int col : group_cols_) combo.push_back(codes[static_cast<size_t>(col)]);
  FAIRHMS_ASSIGN_OR_RETURN(const int first,
                           mutable_data_->AppendRows({coords}, {codes}));
  if (g < 0) {
    std::vector<std::string> parts;
    for (int col : group_cols_) {
      const CategoricalColumn& column = data_->categorical(col);
      parts.push_back(
          column.labels[static_cast<size_t>(codes[static_cast<size_t>(col)])]);
    }
    g = mutable_grouping_->AddGroup(Join(parts, "+"));
    combo_to_group_.emplace(std::move(combo), g);
  } else if (!group_cols_.empty() && combo_to_group_.count(combo) == 0) {
    // Explicit id for an unseen combination: record it so later derived
    // inserts of the same values stay consistent.
    combo_to_group_.emplace(std::move(combo), g);
  }
  mutable_grouping_->AppendRow(g);
  FAIRHMS_RETURN_IF_ERROR(index_->OnAppend(static_cast<size_t>(first),
                                           data_->size()));
  return first;
}

Status SolverSession::Erase(const std::vector<int>& rows) {
  if (!dynamic()) {
    return Status::FailedPrecondition(
        "session is read-only; create it with SolverSession::CreateDynamic "
        "to accept updates");
  }
  // Build the index before tombstoning: built after, it would no longer
  // contain the rows this batch is erasing.
  FAIRHMS_RETURN_IF_ERROR(EnsureDynamicState());
  FAIRHMS_RETURN_IF_ERROR(mutable_data_->ErasePoints(rows));
  FAIRHMS_RETURN_IF_ERROR(index_->OnErase(rows));
  return Status::OK();
}

const Dataset& SolverSession::Projection2D() {
  MutexLock lock(*projection_mu_);
  const bool hit = projection2d_ != nullptr &&
                   projection2d_->version() == data_->version();
  // Account only the rows added since the last build: the projection is
  // one resident object, so a rebuild after a mutation must not re-count
  // what is already resident (inflated stats would trip the cache budget).
  const uint64_t resident_before =
      projection2d_ == nullptr ? 0 : projection2d_->size() * 2 * sizeof(double);
  cache_->AccountProjection(hit,
                            data_->size() * 2 * sizeof(double) -
                                resident_before);
  // Rebuilt in place, so the projection keeps its address and takes the
  // pinned table's (monotonic) version: its cache keys never repeat.
  if (projection2d_ == nullptr) {
    projection2d_ = std::make_unique<Dataset>(data_->Project2D());
  } else if (!hit) {
    *projection2d_ = data_->Project2D();
  }
  return *projection2d_;
}

StatusOr<SolverResult> SolverSession::Solve(const SolverRequest& request) {
  Stopwatch total;
  SolverRequest req = request;
  if (req.data == nullptr) req.data = data_;
  if (req.grouping == nullptr) req.grouping = grouping_;
  if (req.data != data_) {
    return Status::InvalidArgument(
        "request.data does not match the session's pinned dataset");
  }
  if (req.grouping != grouping_) {
    return Status::InvalidArgument(
        "request.grouping does not match the session's pinned grouping");
  }

  // Captured before the solve touches the cache: the cost model records
  // each observation under the warmth the solve actually started from.
  const bool cache_warm = cache_->stats().TotalBytes() > 0;

  SolverResult result;
  if (req.algorithm == "auto") {
    // Shape-check first (ValidateRequestShape accepts the "auto"
    // placeholder) so the planner only ever sees well-formed requests,
    // then plan and fall through to the full validation of the choice.
    FAIRHMS_RETURN_IF_ERROR(
        internal::ValidateRequestShape(req, nullptr, cache_.get()));
    PlanRequest plan_req;
    plan_req.d = req.data->dim();
    plan_req.n = req.data->live_size();
    plan_req.k = req.bounds.k;
    plan_req.num_groups = req.grouping->num_groups;
    plan_req.bounds_tightness = BoundsTightness(req.bounds);
    plan_req.cache_warm = cache_warm;
    plan_req.latency_budget_ms = req.latency_budget_ms;
    plan_req.quality_target = req.quality_target;
    plan_req.seed = req.seed;
    FAIRHMS_ASSIGN_OR_RETURN(
        Plan plan, Planner::PlanQuery(plan_req, *cost_model_, &req.params));
    req.algorithm = plan.algorithm;
    result.plan.planned = true;
    result.plan.predicted_ms = plan.predicted_ms;
    result.plan.predicted_hr = plan.predicted_hr;
    result.plan.reason = plan.reason;
    result.plan.params = plan.params_note;
  }

  const AlgorithmInfo* info = nullptr;
  FAIRHMS_RETURN_IF_ERROR(
      internal::ValidateRequestShape(req, &info, cache_.get()));

  result.algorithm = info->name;
  result.bounds = req.bounds;

  // Exact-2D fallback, applied uniformly for every algorithm that declares
  // the capability: select on the first-two-attribute projection, note it.
  // The projection is prepared once per session. (dim >= 2 was already
  // enforced by ValidateRequestShape.)
  const Dataset* solve_data = req.data;
  if (info->caps.exact_2d && req.data->dim() > 2) {
    solve_data = &Projection2D();
    result.note = StrFormat(
        "%s is exact-2D; selected on the (%s, %s) projection, evaluated in "
        "full %dD",
        info->name.c_str(), req.data->attr_names()[0].c_str(),
        req.data->attr_names()[1].c_str(), req.data->dim());
  }

  // Unconstrained baselines ignore the bounds but for the violation report.
  if (!info->caps.fairness_aware && result.note.empty()) {
    result.note =
        "fairness-unaware baseline; bounds only used for the violation report";
  }

  // Warm-start hint: hand a warm_startable algorithm the certified grid
  // index of the session's previous compatible solution. Compatible =
  // identical seed/threads/params and at most one k step on the same data
  // version, or the same k across a data/grouping version change. The
  // hint is advisory (the algorithm re-validates and falls back to a cold
  // search), so eligibility only filters out hopeless probes.
  const std::string params_key = ParamsFingerprint(req.params);
  SolveRunInfo run_info;
  int warm_hint = -1;
  if (req.allow_warm_start && info->caps.warm_startable) {
    MutexLock lock(*warm_mu_);
    const auto it = warm_memo_.find(info->name);
    if (it != warm_memo_.end()) {
      const WarmMemo& memo = it->second;
      const bool same_config = memo.seed == req.seed &&
                               memo.threads == req.threads &&
                               memo.params_key == params_key;
      const bool k_step = std::abs(memo.k - req.bounds.k) <= 1 &&
                          memo.data_version == data_->version() &&
                          memo.grouping_version == grouping_->version;
      const bool version_step = memo.k == req.bounds.k;
      if (same_config && memo.tau_index >= 0 && (k_step || version_step)) {
        warm_hint = memo.tau_index;
      }
    }
  }

  SolveContext ctx;
  ctx.data = solve_data;
  ctx.grouping = req.grouping;
  ctx.bounds = &req.bounds;
  ctx.seed = req.seed;
  ctx.threads = req.threads;
  ctx.params = &req.params;
  ctx.cache = cache_.get();
  ctx.warm_tau_index = warm_hint;
  ctx.run_info = &run_info;

  FAIRHMS_ASSIGN_OR_RETURN(result.solution, info->solve(ctx));
  if (result.solution.algorithm.empty()) {
    result.solution.algorithm = info->display_name;
  }
  result.warm_start_used = run_info.warm_start_used;
  if (info->caps.warm_startable) {
    MutexLock lock(*warm_mu_);
    WarmMemo& memo = warm_memo_[info->name];
    memo.tau_index = run_info.tau_index;
    memo.k = req.bounds.k;
    memo.seed = req.seed;
    memo.threads = req.threads;
    memo.data_version = data_->version();
    memo.grouping_version = grouping_->version;
    memo.params_key = params_key;
  }
  result.group_counts =
      SolutionGroupCounts(result.solution.rows, *req.grouping);
  result.violations =
      CountViolations(result.solution.rows, *req.grouping, req.bounds);
  result.solve_ms = result.solution.elapsed_ms;
  result.total_ms = total.ElapsedMillis();
  // Every solve feeds the planner's cost model — including explicit
  // algorithm requests, so "auto" learns from mixed workloads.
  cost_model_->Observe(
      info->name,
      CostSignature::Make(req.data->dim(), req.data->live_size(),
                          req.bounds.k, req.grouping->num_groups,
                          BoundsTightness(req.bounds), cache_warm),
      result.solve_ms, result.solution.mhr);
  return result;
}

void SolverSession::ClearCache() {
  // The 2D projection stays: in-flight solves read it through raw
  // pointers, and the cache keeps its bytes charged.
  cache_->Clear();
}

}  // namespace fairhms
