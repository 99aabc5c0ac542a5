#include "geom/vec.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace fairhms {
namespace {

TEST(VecTest, Dot) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
  EXPECT_DOUBLE_EQ(Dot(a, b, 0), 0.0);
}

TEST(VecTest, NormL2) {
  const double a[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(NormL2(a, 2), 5.0);
}

TEST(VecTest, SumCoords) {
  const double a[] = {0.5, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(SumCoords(a, 3), 1.0);
}

TEST(VecTest, NormalizeL2MakesUnit) {
  double a[] = {3.0, 4.0};
  NormalizeL2(a, 2);
  EXPECT_NEAR(NormL2(a, 2), 1.0, 1e-12);
  EXPECT_NEAR(a[0], 0.6, 1e-12);
}

TEST(VecTest, NormalizeL2ZeroVectorNoop) {
  double a[] = {0.0, 0.0};
  NormalizeL2(a, 2);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
}

}  // namespace
}  // namespace fairhms
