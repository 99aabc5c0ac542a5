#include "data/grouping.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>

#include "common/string_util.h"
#include "geom/vec.h"

namespace fairhms {

std::vector<int> Grouping::Counts() const {
  std::vector<int> counts(static_cast<size_t>(num_groups), 0);
  for (int g : group_of) ++counts[static_cast<size_t>(g)];
  return counts;
}

std::vector<std::vector<int>> Grouping::Members() const {
  std::vector<std::vector<int>> members(static_cast<size_t>(num_groups));
  for (size_t i = 0; i < group_of.size(); ++i) {
    members[static_cast<size_t>(group_of[i])].push_back(static_cast<int>(i));
  }
  return members;
}

std::vector<int> Grouping::LiveCounts(const Dataset& data) const {
  assert(group_of.size() == data.size());
  std::vector<int> counts(static_cast<size_t>(num_groups), 0);
  for (size_t i = 0; i < group_of.size(); ++i) {
    if (data.live(i)) ++counts[static_cast<size_t>(group_of[i])];
  }
  return counts;
}

std::vector<std::vector<int>> Grouping::MembersLive(const Dataset& data) const {
  assert(group_of.size() == data.size());
  std::vector<std::vector<int>> members(static_cast<size_t>(num_groups));
  for (size_t i = 0; i < group_of.size(); ++i) {
    if (data.live(i)) {
      members[static_cast<size_t>(group_of[i])].push_back(static_cast<int>(i));
    }
  }
  return members;
}

std::vector<int> Grouping::MembersLive(const Dataset& data, int group) const {
  assert(group_of.size() == data.size());
  std::vector<int> members;
  for (size_t i = 0; i < group_of.size(); ++i) {
    if (group_of[i] == group && data.live(i)) {
      members.push_back(static_cast<int>(i));
    }
  }
  return members;
}

void Grouping::AppendRow(int group) {
  assert(group >= 0 && group < num_groups);
  group_of.push_back(group);
  ++version;
}

int Grouping::AddGroup(std::string name) {
  names.push_back(std::move(name));
  ++version;
  return num_groups++;
}

Grouping SingleGroup(size_t n) {
  Grouping g;
  g.group_of.assign(n, 0);
  g.num_groups = 1;
  g.names = {"all"};
  return g;
}

StatusOr<Grouping> GroupByCategorical(const Dataset& data,
                                      const std::string& column) {
  return GroupByCategoricalProduct(data, {column});
}

StatusOr<Grouping> GroupByCategoricalProduct(
    const Dataset& data, const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("no grouping columns given");
  }
  std::vector<int> col_idx;
  for (const auto& name : columns) {
    FAIRHMS_ASSIGN_OR_RETURN(int idx, data.FindCategorical(name));
    col_idx.push_back(idx);
  }
  // Map each occurring code combination to a dense group id.
  std::map<std::vector<int>, int> combo_to_group;
  Grouping g;
  g.group_of.resize(data.size());
  std::vector<int> combo(col_idx.size());
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t c = 0; c < col_idx.size(); ++c) {
      combo[c] = data.categorical(col_idx[c]).codes[i];
    }
    auto [it, inserted] =
        combo_to_group.emplace(combo, static_cast<int>(combo_to_group.size()));
    g.group_of[i] = it->second;
    if (inserted) {
      std::vector<std::string> parts;
      for (size_t c = 0; c < col_idx.size(); ++c) {
        parts.push_back(
            data.categorical(col_idx[c]).labels[static_cast<size_t>(combo[c])]);
      }
      g.names.push_back(Join(parts, "+"));
    }
  }
  g.num_groups = static_cast<int>(combo_to_group.size());
  return g;
}

Grouping GroupBySumRank(const Dataset& data, int num_groups) {
  assert(num_groups >= 1);
  const size_t n = data.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = SumCoords(data.point(static_cast<size_t>(a)), static_cast<size_t>(data.dim()));
    const double sb = SumCoords(data.point(static_cast<size_t>(b)), static_cast<size_t>(data.dim()));
    if (sa != sb) return sa < sb;
    return a < b;
  });
  Grouping g;
  g.group_of.resize(n);
  g.num_groups = num_groups;
  for (int c = 0; c < num_groups; ++c) {
    g.names.push_back(StrFormat("G%d", c));
  }
  for (size_t r = 0; r < n; ++r) {
    const int grp = std::min<int>(
        num_groups - 1,
        static_cast<int>(r * static_cast<size_t>(num_groups) / (n == 0 ? 1 : n)));
    g.group_of[static_cast<size_t>(order[r])] = grp;
  }
  return g;
}

StatusOr<Grouping> BuildGrouping(const Dataset& data,
                                 const std::vector<std::string>* group_by,
                                 int64_t groups) {
  if (group_by != nullptr) return GroupByCategoricalProduct(data, *group_by);
  if (groups < 1 || groups > static_cast<int64_t>(data.size())) {
    return Status::InvalidArgument(
        StrFormat("\"groups\" must be in [1, %zu]", data.size()));
  }
  if (groups == 1) return SingleGroup(data.size());
  return GroupBySumRank(data, static_cast<int>(groups));
}

}  // namespace fairhms
