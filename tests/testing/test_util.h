// Shared helpers for the FairHMS test suite: tiny dataset builders,
// brute-force reference implementations, the paper's Table 1 example, and
// per-test temp paths.

#ifndef FAIRHMS_TESTS_TESTING_TEST_UTIL_H_
#define FAIRHMS_TESTS_TESTING_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "geom/dominance.h"
#include "geom/vec.h"

namespace fairhms {
namespace testing {

/// A temp-file path no other test case can collide with:
/// TempDir()/<stem>_<suite>_<test>_<pid>. ctest runs every case as its own
/// process, concurrently under -j, so a fixed file name per suite races.
inline std::string UniqueTempPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = stem;
  if (info != nullptr) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  name += "_" + std::to_string(::getpid());
  // Parameterized names carry '/', which must not become a directory.
  std::replace(name.begin(), name.end(), '/', '_');
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

/// The candidate cache's cell rule, spelled independently of the kernels:
/// ceil(h * 2^15), the smallest 16-bit fixed-point value >= h.
inline simd::Cell CellUpReference(double h) {
  return static_cast<simd::Cell>(std::ceil(std::ldexp(h, 15)));
}

/// The happiness a cell stands for: q * 2^-15.
inline double CellValueReference(simd::Cell q) { return std::ldexp(q, -15); }

/// Builds a dataset from a point list.
inline Dataset MakeDataset(const std::vector<std::vector<double>>& pts) {
  Dataset data(static_cast<int>(pts.front().size()));
  for (const auto& p : pts) data.AddPoint(p);
  return data;
}

/// Builds a grouping from explicit assignments.
inline Grouping MakeGrouping(std::vector<int> assign, int num_groups) {
  Grouping g;
  g.group_of = std::move(assign);
  g.num_groups = num_groups;
  for (int c = 0; c < num_groups; ++c) g.names.push_back("g" + std::to_string(c));
  return g;
}

/// O(n^2) reference skyline.
inline std::vector<int> BruteForceSkyline(const Dataset& data,
                                          const std::vector<int>& rows) {
  std::vector<int> sky;
  const size_t d = static_cast<size_t>(data.dim());
  for (int i : rows) {
    bool dominated = false;
    for (int j : rows) {
      if (i != j && Dominates(data.point(static_cast<size_t>(j)),
                              data.point(static_cast<size_t>(i)), d)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) sky.push_back(i);
  }
  return sky;
}

/// Dense direction-grid reference mhr for d = 2 (lower bound with grid
/// resolution ~1/steps; adequate to cross-check exact evaluators).
inline double GridMhr2D(const Dataset& data, const std::vector<int>& subset,
                        int steps = 20000) {
  double mhr = 1.0;
  for (int t = 0; t <= steps; ++t) {
    const double lambda = static_cast<double>(t) / steps;
    double best_all = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      best_all = std::max(best_all,
                          lambda * data.at(i, 0) + (1 - lambda) * data.at(i, 1));
    }
    if (best_all <= 1e-15) continue;
    double best_s = 0.0;
    for (int r : subset) {
      best_s = std::max(best_s, lambda * data.at(static_cast<size_t>(r), 0) +
                                    (1 - lambda) * data.at(static_cast<size_t>(r), 1));
    }
    mhr = std::min(mhr, best_s / best_all);
  }
  return mhr;
}

/// Visits every size-k subset of rows; `visit(subset)`.
inline void ForEachSubset(const std::vector<int>& rows, int k,
                          const std::function<void(const std::vector<int>&)>& visit) {
  std::vector<int> idx(static_cast<size_t>(k));
  std::function<void(int, int)> rec = [&](int start, int depth) {
    if (depth == k) {
      std::vector<int> subset;
      subset.reserve(static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) subset.push_back(rows[static_cast<size_t>(idx[static_cast<size_t>(i)])]);
      visit(subset);
      return;
    }
    for (int i = start; i <= static_cast<int>(rows.size()) - (k - depth); ++i) {
      idx[static_cast<size_t>(depth)] = i;
      rec(i + 1, depth + 1);
    }
  };
  if (k >= 1 && k <= static_cast<int>(rows.size())) rec(0, 0);
}

/// The running example of the paper (Table 1): eight LSAC applicants with
/// (LSAT, GPA), gender and race, normalized by attribute maxima (the
/// normalization that reproduces the paper's happiness values exactly).
inline Dataset MakeLsacExample() {
  Dataset data(std::vector<std::string>{"lsat", "gpa"});
  data.AddCategoricalColumn("gender", {"Female", "Male"});
  data.AddCategoricalColumn("race", {"Black", "White", "Hispanic", "Asian"});
  // id, gender, race, lsat, gpa per Table 1 (a1 .. a8).
  const double lsat[] = {164, 163, 165, 160, 170, 161, 153, 156};
  const double gpa[] = {3.31, 3.55, 3.09, 3.83, 2.79, 3.69, 3.89, 3.87};
  const int male[] = {0, 1, 0, 1, 1, 0, 1, 0};
  const int race[] = {0, 0, 1, 1, 2, 2, 3, 3};
  for (int i = 0; i < 8; ++i) {
    data.AddRow({lsat[i], gpa[i]}, {male[i], race[i]});
  }
  return data.ScaledByMax();
}

}  // namespace testing
}  // namespace fairhms

#endif  // FAIRHMS_TESTS_TESTING_TEST_UTIL_H_
