#include "algo/baselines.h"

#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/exact_evaluator.h"
#include "data/generators.h"
#include "skyline/skyline.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

using testing::MakeDataset;

class BaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    data_ = std::make_unique<Dataset>(GenAntiCorrelated(400, 3, &rng));
    sky_ = ComputeSkyline(*data_);
    ASSERT_GE(sky_.size(), 20u);
  }

  /// Exact mhr of `rows` against the skyline.
  double Mhr(const std::vector<int>& rows) const {
    return MhrExactLp(*data_, sky_, rows);
  }

  std::unique_ptr<Dataset> data_;
  std::vector<int> sky_;
};

TEST_F(BaselinesTest, RdpGreedyReturnsKDistinctRows) {
  auto sol = RdpGreedyRows(*data_, sky_, 8);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->size(), 8u);
  std::vector<int> dedup = *sol;
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(dedup.size(), 8u);
  EXPECT_GT(Mhr(*sol), 0.0);
}

TEST_F(BaselinesTest, RdpGreedyImprovesWithK) {
  auto s4 = RdpGreedyRows(*data_, sky_, 4);
  auto s12 = RdpGreedyRows(*data_, sky_, 12);
  ASSERT_TRUE(s4.ok() && s12.ok());
  EXPECT_GE(Mhr(*s12), Mhr(*s4) - 1e-9);
}

TEST_F(BaselinesTest, RdpGreedyHandlesKBeyondPool) {
  const Dataset tiny = MakeDataset({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  auto sol = RdpGreedyRows(tiny, {0, 1, 2}, 10);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->size(), 3u);
  EXPECT_NEAR(MhrExactLp(tiny, {0, 1, 2}, *sol), 1.0, 1e-9);
}

TEST_F(BaselinesTest, RdpGreedyRejectsEmptyInput) {
  EXPECT_FALSE(RdpGreedyRows(*data_, {}, 3).ok());
  EXPECT_FALSE(RdpGreedyRows(*data_, sky_, 0).ok());
}

TEST_F(BaselinesTest, DmmReturnsReasonableSolution) {
  auto sol = DmmRows(*data_, sky_, 8);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->size(), 8u);
  EXPECT_GT(Mhr(*sol), 0.3);
}

TEST_F(BaselinesTest, DmmMemoryGuardTriggersInHighD) {
  Rng rng(7);
  const Dataset wide = GenIndependent(200, 9, &rng);
  const auto sky = ComputeSkyline(wide);
  DmmOptions opts;
  opts.memory_budget_bytes = 10'000'000;  // 10 MB: 6^8 dirs won't fit.
  EXPECT_EQ(DmmRows(wide, sky, 10, opts).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(BaselinesTest, DmmThresholdMonotonicity) {
  // More budget (larger k) can only improve the achieved mhr.
  auto s5 = DmmRows(*data_, sky_, 5);
  auto s15 = DmmRows(*data_, sky_, 15);
  ASSERT_TRUE(s5.ok() && s15.ok());
  EXPECT_GE(Mhr(*s15), Mhr(*s5) - 1e-9);
}

TEST_F(BaselinesTest, SphereRequiresKGreaterEqualD) {
  EXPECT_EQ(SphereRows(*data_, sky_, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BaselinesTest, SphereIncludesDimensionExtremes) {
  auto sol = SphereRows(*data_, sky_, 8);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->size(), 8u);
  // Each dimension's max over the pool must be in the solution.
  for (int j = 0; j < 3; ++j) {
    int best = sky_.front();
    for (int r : sky_) {
      if (data_->at(static_cast<size_t>(r), j) >
          data_->at(static_cast<size_t>(best), j)) {
        best = r;
      }
    }
    EXPECT_NE(std::find(sol->begin(), sol->end(), best), sol->end())
        << "extreme of dim " << j << " missing";
  }
}

TEST_F(BaselinesTest, HittingSetProducesSolution) {
  auto sol = HittingSetRows(*data_, sky_, 8);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->size(), 8u);
  EXPECT_GT(Mhr(*sol), 0.3);
}

TEST_F(BaselinesTest, HittingSetScalesWithoutMatrix) {
  // HS must handle dimensionalities where DMM refuses.
  Rng rng(11);
  const Dataset wide = GenIndependent(300, 9, &rng);
  const auto sky = ComputeSkyline(wide);
  DmmOptions dmm_opts;
  dmm_opts.memory_budget_bytes = 10'000'000;
  EXPECT_FALSE(DmmRows(wide, sky, 10, dmm_opts).ok());
  auto hs = HittingSetRows(wide, sky, 10);
  ASSERT_TRUE(hs.ok()) << hs.status();
  EXPECT_EQ(hs->size(), 10u);
}

TEST_F(BaselinesTest, QualityOrderingSanity) {
  // RDP-Greedy (LP-driven) should be competitive with Sphere on
  // anti-correlated data; all baselines must stay within [0, 1].
  auto greedy = RdpGreedyRows(*data_, sky_, 9);
  auto sphere = SphereRows(*data_, sky_, 9);
  auto dmm = DmmRows(*data_, sky_, 9);
  auto hs = HittingSetRows(*data_, sky_, 9);
  for (const auto* sol : {&greedy, &sphere, &dmm, &hs}) {
    ASSERT_TRUE(sol->ok());
    EXPECT_GE(Mhr(**sol), 0.0);
    EXPECT_LE(Mhr(**sol), 1.0 + 1e-12);
  }
}

TEST_F(BaselinesTest, AllBaselinesDeterministic) {
  auto a1 = RdpGreedyRows(*data_, sky_, 6);
  auto a2 = RdpGreedyRows(*data_, sky_, 6);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_EQ(*a1, *a2);
  auto d1 = DmmRows(*data_, sky_, 6);
  auto d2 = DmmRows(*data_, sky_, 6);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(*d1, *d2);
  auto h1 = HittingSetRows(*data_, sky_, 6);
  auto h2 = HittingSetRows(*data_, sky_, 6);
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(*h1, *h2);
}

TEST_F(BaselinesTest, TwoDimensionalRun) {
  Rng rng(13);
  const Dataset data2 = GenAntiCorrelated(300, 2, &rng);
  const auto sky2 = ComputeSkyline(data2);
  for (int k : {3, 5}) {
    auto g = RdpGreedyRows(data2, sky2, k);
    ASSERT_TRUE(g.ok());
    auto d = DmmRows(data2, sky2, k);
    ASSERT_TRUE(d.ok());
    auto h = HittingSetRows(data2, sky2, k);
    ASSERT_TRUE(h.ok());
    // 2D with a handful of points covers most of the envelope.
    EXPECT_GT(MhrExactLp(data2, sky2, *g), 0.7);
    EXPECT_GT(MhrExactLp(data2, sky2, *d), 0.7);
  }
}

}  // namespace
}  // namespace fairhms
