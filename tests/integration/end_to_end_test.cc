// End-to-end runs over the dataset replicas: every fair algorithm produces
// zero-violation size-k solutions; unconstrained baselines violate; the
// price of fairness stays small; native fair algorithms beat the G-adapted
// baselines (the paper's headline experimental claims, in miniature).

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/bigreedy.h"
#include "algo/fair_greedy.h"
#include "algo/group_adapter.h"
#include "algo/intcov.h"
#include "common/random.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "skyline/skyline.h"

namespace fairhms {
namespace {

TEST(EndToEndTest, LawschsGenderPipeline) {
  Rng rng(2022);
  const Dataset raw = MakeLawschsSim(&rng, 8000);
  const Dataset data = raw.ScaledByMax();
  auto gender = GroupByCategorical(data, "gender");
  ASSERT_TRUE(gender.ok());
  const int k = 4;
  const GroupBounds bounds =
      GroupBounds::Proportional(k, gender->Counts(), 0.1);
  const auto sky = ComputeSkyline(data);

  // Exact fair optimum.
  auto exact = IntCov(data, *gender, bounds);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(CountViolations(exact->rows, *gender, bounds), 0);

  // Unconstrained optimum (price of fairness reference).
  const Grouping single = SingleGroup(data.size());
  auto unconstrained =
      IntCov(data, single, GroupBounds::Balanced(k, 1, 0.0).value());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_LE(exact->mhr, unconstrained->mhr + 1e-9);
  // Price of fairness is small on Lawschs (paper Fig. 4: within ~0.02).
  EXPECT_LT(unconstrained->mhr - exact->mhr, 0.05);

  // BiGreedy close to exact.
  auto bg = BiGreedy(data, *gender, bounds);
  ASSERT_TRUE(bg.ok());
  const double bg_mhr = EvaluateMhr(data, sky, bg->rows);
  EXPECT_EQ(CountViolations(bg->rows, *gender, bounds), 0);
  EXPECT_GE(bg_mhr, exact->mhr - 0.1);
}

TEST(EndToEndTest, UnconstrainedBaselinesViolateOnAdult) {
  Rng rng(7);
  const Dataset raw = MakeAdultSim(&rng, 4000);
  const Dataset data = raw.ScaledByMax();
  auto gender = GroupByCategorical(data, "gender");
  ASSERT_TRUE(gender.ok());
  const int k = 10;
  const GroupBounds bounds =
      GroupBounds::Proportional(k, gender->Counts(), 0.1);
  const auto sky = ComputeSkyline(data);

  // The unconstrained greedy baseline picks mostly from the gain-heavy male
  // group -> violations (Fig. 3's phenomenon).
  auto greedy = RdpGreedyRows(data, sky, k);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GT(CountViolations(*greedy, *gender, bounds), 0);

  // The fair algorithms do not.
  auto bg = BiGreedy(data, *gender, bounds);
  ASSERT_TRUE(bg.ok());
  EXPECT_EQ(CountViolations(bg->rows, *gender, bounds), 0);
  auto fg = FairGreedy(data, *gender, bounds);
  ASSERT_TRUE(fg.ok());
  EXPECT_EQ(CountViolations(fg->rows, *gender, bounds), 0);
}

TEST(EndToEndTest, NativeFairBeatsGroupAdaptedOnAntiCorrelated) {
  Rng rng(13);
  const Dataset data = GenAntiCorrelated(2000, 4, &rng);
  const Grouping g = GroupBySumRank(data, 4);
  const int k = 12;
  const GroupBounds bounds = GroupBounds::Proportional(k, g.Counts(), 0.1);
  const auto sky = ComputeSkyline(data);

  auto bg = BiGreedy(data, g, bounds);
  ASSERT_TRUE(bg.ok());
  BaseSolver greedy_solver = [](const Dataset& d,
                                const std::vector<int>& rows,
                                int kk) { return RdpGreedyRows(d, rows, kk); };
  auto gg = GroupAdapt(greedy_solver, "Greedy", data, g, bounds);
  ASSERT_TRUE(gg.ok()) << gg.status();

  const double bg_mhr = EvaluateMhr(data, sky, bg->rows);
  const double gg_mhr = EvaluateMhr(data, sky, gg->rows);
  // Paper: per-group unions are redundant, BiGreedy wins. Allow slack for
  // the miniature instance but insist BiGreedy is not worse.
  EXPECT_GE(bg_mhr, gg_mhr - 0.02);
  EXPECT_EQ(CountViolations(bg->rows, g, bounds), 0);
  EXPECT_EQ(CountViolations(gg->rows, g, bounds), 0);
}

TEST(EndToEndTest, CompasHighDimensionalPipeline) {
  Rng rng(17);
  const Dataset raw = MakeCompasSim(&rng, 1500);
  const Dataset data = raw.ScaledByMax();
  auto g = GroupByCategoricalProduct(data, {"gender", "isRecid"});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_groups, 4);
  const int k = 12;
  const GroupBounds bounds = GroupBounds::Proportional(k, g->Counts(), 0.1);

  auto bg = BiGreedy(data, *g, bounds);
  ASSERT_TRUE(bg.ok()) << bg.status();
  EXPECT_EQ(bg->rows.size(), static_cast<size_t>(k));
  EXPECT_EQ(CountViolations(bg->rows, *g, bounds), 0);

  auto bgp = BiGreedyPlus(data, *g, bounds);
  ASSERT_TRUE(bgp.ok()) << bgp.status();
  EXPECT_EQ(CountViolations(bgp->rows, *g, bounds), 0);
}

TEST(EndToEndTest, CreditSmallDatasetAllGroupings) {
  Rng rng(19);
  const Dataset raw = MakeCreditSim(&rng, 1000);
  const Dataset data = raw.ScaledByMax();
  for (const char* col : {"housing", "job", "working_years"}) {
    auto g = GroupByCategorical(data, col);
    ASSERT_TRUE(g.ok());
    const int k = 12;
    const GroupBounds bounds = GroupBounds::Proportional(k, g->Counts(), 0.1);
    auto bg = BiGreedy(data, *g, bounds);
    ASSERT_TRUE(bg.ok()) << col << ": " << bg.status();
    EXPECT_EQ(CountViolations(bg->rows, *g, bounds), 0) << col;
  }
}

}  // namespace
}  // namespace fairhms
