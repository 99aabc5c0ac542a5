#include "api/catalog.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace fairhms {

namespace {

/// Cost-model sidecar next to a snapshot. Kept out of the versioned
/// binary snapshot format on purpose: the model is an optimization, not
/// serving state, so a missing or unreadable sidecar must never fail a
/// restore.
std::string CostModelSidecarPath(const std::string& snapshot_path) {
  return snapshot_path + ".plan";
}

Status UnknownDataset(const std::string& name) {
  return Status::NotFound(
      StrFormat("no dataset named '%s' in the catalog", name.c_str()));
}

}  // namespace

StatusOr<Snapshot> SnapshotSession(SolverSession* session) {
  if (session == nullptr) {
    return Status::InvalidArgument("session must not be null");
  }
  FAIRHMS_RETURN_IF_ERROR(session->EnsureIndex());
  Snapshot snapshot;
  snapshot.data = session->data();
  snapshot.grouping = session->grouping();
  snapshot.group_columns = session->group_column_names();
  snapshot.combo_to_group = session->combo_map();
  const SkylineIndex* index = session->index();
  snapshot.has_index = index != nullptr;
  if (index != nullptr) snapshot.index = index->SaveState();
  return snapshot;
}

DatasetCatalog::DatasetCatalog() : DatasetCatalog(Options{}) {}

DatasetCatalog::DatasetCatalog(Options opts)
    : arbiter_(opts.cache_budget_bytes) {}

Status DatasetCatalog::Commit(const std::string& name, Entry entry) {
  ArtifactCache* cache = entry.session->cache();
  arbiter_.Register(cache, name, [cache] { cache->EvictLeastRecent(); });
  entries_.emplace(name, std::move(entry));
  ++version_;
  return Status::OK();
}

Status DatasetCatalog::Register(const std::string& name, Dataset data,
                                Grouping grouping,
                                const std::vector<std::string>& group_columns) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  if (entries_.count(name) != 0) {
    return Status::InvalidArgument(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  Entry entry;
  entry.data = std::make_unique<Dataset>(std::move(data));
  entry.grouping = std::make_unique<Grouping>(std::move(grouping));
  FAIRHMS_ASSIGN_OR_RETURN(
      SolverSession session,
      SolverSession::CreateDynamic(entry.data.get(), entry.grouping.get(),
                                   group_columns));
  entry.session = std::make_unique<SolverSession>(std::move(session));
  return Commit(name, std::move(entry));
}

Status DatasetCatalog::Load(const std::string& name, const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  if (entries_.count(name) != 0) {
    return Status::InvalidArgument(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  // Every fallible step — read, parse, index restore, session build —
  // completes before the name is committed, so a bad snapshot can never
  // leave the catalog partially mutated.
  FAIRHMS_ASSIGN_OR_RETURN(Snapshot snapshot, ReadSnapshotFile(path));
  Entry entry;
  entry.data = std::make_unique<Dataset>(std::move(snapshot.data));
  entry.grouping = std::make_unique<Grouping>(std::move(snapshot.grouping));
  std::unique_ptr<SkylineIndex> index;
  if (snapshot.has_index) {
    FAIRHMS_ASSIGN_OR_RETURN(
        index, SkylineIndex::Restore(entry.data.get(), entry.grouping.get(),
                                     snapshot.index));
  }
  FAIRHMS_ASSIGN_OR_RETURN(
      SolverSession session,
      SolverSession::RestoreDynamic(entry.data.get(), entry.grouping.get(),
                                    snapshot.group_columns,
                                    std::move(snapshot.combo_to_group),
                                    std::move(index)));
  entry.session = std::make_unique<SolverSession>(std::move(session));
  // Lenient by design (see CostModelSidecarPath): a snapshot without a
  // sidecar — or with a corrupt one — restores with a cold planner.
  std::ifstream sidecar(CostModelSidecarPath(path));
  if (sidecar) {
    std::ostringstream text;
    text << sidecar.rdbuf();
    (void)entry.session->cost_model()->Restore(text.str());
  }
  return Commit(name, std::move(entry));
}

Status DatasetCatalog::Save(const std::string& name, const std::string& path) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownDataset(name);
  FAIRHMS_ASSIGN_OR_RETURN(Snapshot snapshot,
                           SnapshotSession(it->second.session.get()));
  FAIRHMS_RETURN_IF_ERROR(WriteSnapshotFile(snapshot, path));
  // The planner's cost model rides along in a text sidecar so a restored
  // session plans as well as the one that was saved.
  std::ofstream sidecar(CostModelSidecarPath(path),
                        std::ios::out | std::ios::trunc);
  sidecar << it->second.session->cost_model()->Serialize();
  if (!sidecar.good()) {
    return Status::IOError(StrFormat("cannot write cost-model sidecar '%s'",
                                     CostModelSidecarPath(path).c_str()));
  }
  return Status::OK();
}

Status DatasetCatalog::Drop(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownDataset(name);
  arbiter_.Unregister(it->second.session->cache());
  entries_.erase(it);
  ++version_;
  return Status::OK();
}

std::vector<std::string> DatasetCatalog::List() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    names.push_back(name);
  }
  return names;
}

StatusOr<DatasetCatalog::Handle> DatasetCatalog::Find(
    const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownDataset(name);
  return Handle{it->second.session.get(), it->second.mu.get()};
}

StatusOr<SolverSession*> DatasetCatalog::Session(const std::string& name) {
  FAIRHMS_ASSIGN_OR_RETURN(const Handle handle, Find(name));
  return handle.session;
}

StatusOr<SolverResult> DatasetCatalog::Solve(const std::string& name,
                                             const SolverRequest& request) {
  FAIRHMS_ASSIGN_OR_RETURN(SolverSession * session, Session(name));
  return Serve(session, [&] { return session->Solve(request); });
}

}  // namespace fairhms
