// Regenerates Table 1 and the paper's running example (Sec. 1 + Example
// 2.2): the eight LSAC applicants, the unconstrained HMS solutions at k = 3
// and k = 2, and the gender-fair FairHMS solution at k = 2, with their
// published minimum happiness ratios.

#include <cstdio>

#include "algo/intcov.h"
#include "bench/bench_util.h"
#include "core/exact_evaluator.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

Dataset MakeLsacTable1() {
  Dataset data(std::vector<std::string>{"lsat", "gpa"});
  data.AddCategoricalColumn("gender", {"Female", "Male"});
  data.AddCategoricalColumn("race", {"Black", "White", "Hispanic", "Asian"});
  const double lsat[] = {164, 163, 165, 160, 170, 161, 153, 156};
  const double gpa[] = {3.31, 3.55, 3.09, 3.83, 2.79, 3.69, 3.89, 3.87};
  const int male[] = {0, 1, 0, 1, 1, 0, 1, 0};
  const int race[] = {0, 0, 1, 1, 2, 2, 3, 3};
  for (int i = 0; i < 8; ++i) data.AddRow({lsat[i], gpa[i]}, {male[i], race[i]});
  return data;
}

void PrintSet(const char* label, const std::vector<int>& rows, double mhr,
              const Dataset& raw) {
  std::printf("%-38s {", label);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%sa%d", i ? ", " : "", rows[i] + 1);
  }
  std::printf("}  mhr = %.4f  genders = [", mhr);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& col = raw.categorical(0);
    std::printf("%s%s", i ? ", " : "",
                col.labels[static_cast<size_t>(
                               col.codes[static_cast<size_t>(rows[i])])]
                    .c_str());
  }
  std::printf("]\n");
}

int Run(int argc, char** argv) {
  // No flags: anything given is a typo, warned about.
  if (!bench::CheckFlags(cli::Flags(argc, argv), "bench_table1_example")) {
    return 1;
  }
  const Dataset raw = MakeLsacTable1();
  const Dataset data = raw.ScaledByMax();

  std::printf("=== Table 1: Example tuples in the LSAC database ===\n");
  std::printf("%-5s %-8s %-10s %-6s %-5s\n", "ID", "Gender", "Race", "LSAT",
              "GPA");
  for (size_t i = 0; i < raw.size(); ++i) {
    std::printf("a%-4zu %-8s %-10s %-6.0f %-5.2f\n", i + 1,
                raw.categorical(0)
                    .labels[static_cast<size_t>(raw.categorical(0).codes[i])]
                    .c_str(),
                raw.categorical(1)
                    .labels[static_cast<size_t>(raw.categorical(1).codes[i])]
                    .c_str(),
                raw.at(i, 0), raw.at(i, 1));
  }

  const auto sky = ComputeSkyline(data);
  std::printf("\nAll %zu applicants lie on the skyline (paper: \"all the "
              "applicants are in the skyline\").\n",
              sky.size());

  std::printf("\n=== Running example (paper Sec. 1 / Example 2.2) ===\n");
  std::printf("%-38s %s\n", "paper", "this implementation");

  const Grouping single = SingleGroup(8);
  {
    auto sol =
        IntCov(data, single, GroupBounds::Explicit(3, {0}, {3}).value());
    PrintSet("HMS k=3 (paper: {a4,a5,a7}, 0.9984)", sol->rows, sol->mhr, raw);
  }
  {
    auto sol =
        IntCov(data, single, GroupBounds::Explicit(2, {0}, {2}).value());
    PrintSet("HMS k=2 (paper: {a4,a5}, 0.9846)", sol->rows, sol->mhr, raw);
  }
  {
    auto gender = GroupByCategorical(data, "gender").value();
    auto sol = IntCov(data, gender,
                      GroupBounds::Explicit(2, {1, 1}, {1, 1}).value());
    PrintSet("FairHMS k=2 (paper: {a5,a8}, 0.9834)", sol->rows, sol->mhr,
             raw);
  }
  std::printf(
      "\nPrice of fairness on the example: %.4f -> %.4f (drop %.4f).\n",
      MhrExact2D(data, sky, {3, 4}), MhrExact2D(data, sky, {4, 7}),
      MhrExact2D(data, sky, {3, 4}) - MhrExact2D(data, sky, {4, 7}));
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
