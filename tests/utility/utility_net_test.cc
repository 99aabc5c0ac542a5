#include "utility/utility_net.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geom/vec.h"

namespace fairhms {
namespace {

/// Direction j of `net`, gathered from its columns.
std::vector<double> Direction(const UtilityNet& net, size_t j) {
  std::vector<double> u(static_cast<size_t>(net.dim()));
  for (int i = 0; i < net.dim(); ++i) {
    u[static_cast<size_t>(i)] = net.columns().col(i)[j];
  }
  return u;
}

TEST(UtilityNetTest, RandomVectorsAreUnitAndNonnegative) {
  Rng rng(1);
  const UtilityNet net = UtilityNet::SampleRandom(5, 500, &rng);
  EXPECT_EQ(net.size(), 500u);
  EXPECT_EQ(net.dim(), 5);
  EXPECT_EQ(net.columns().rows(), 500u);
  EXPECT_EQ(net.columns().dim(), 5);
  for (size_t j = 0; j < net.size(); ++j) {
    const std::vector<double> u = Direction(net, j);
    EXPECT_NEAR(NormL2(u.data(), 5), 1.0, 1e-9);
    for (int i = 0; i < 5; ++i) EXPECT_GE(u[static_cast<size_t>(i)], 0.0);
  }
}

TEST(UtilityNetTest, SampleMatchesRowMajorReference) {
  // The columns hold exactly the directions a row-major sampler writes:
  // same Rng draws, same normalization, bit for bit.
  Rng rng(11), ref(11);
  const int d = 4;
  const UtilityNet net = UtilityNet::SampleRandom(d, 300, &rng);
  for (size_t j = 0; j < net.size(); ++j) {
    double v[d];
    double norm_sq = 0.0;
    do {
      norm_sq = 0.0;
      for (int i = 0; i < d; ++i) {
        v[i] = std::fabs(ref.Normal());
        norm_sq += v[i] * v[i];
      }
    } while (norm_sq <= 1e-30);
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (int i = 0; i < d; ++i) {
      EXPECT_EQ(net.columns().col(i)[j], v[i] * inv) << j << "," << i;
    }
  }
  EXPECT_EQ(rng.StateKey(), ref.StateKey());
}

TEST(UtilityNetTest, DotWithIsDotOverTheDirection) {
  Rng rng(13);
  const UtilityNet net = UtilityNet::SampleRandom(6, 200, &rng);
  double p[6];
  for (double& x : p) x = rng.Uniform();
  for (size_t j = 0; j < net.size(); ++j) {
    EXPECT_EQ(net.DotWith(j, p), Dot(Direction(net, j).data(), p, 6)) << j;
  }
}

TEST(UtilityNetTest, ColumnsAreSizedOnceAndCopiesOwnTheirColumns) {
  Rng rng(17);
  const UtilityNet net = UtilityNet::SampleRandom(3, 100, &rng);
  // One padded allocation per column, no doubling slack.
  EXPECT_EQ(net.columns().padded_rows(), 104u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(net.columns().cols()[i], net.columns().col(i));
  }
  const UtilityNet copy = net;
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(copy.columns().cols()[i], net.columns().cols()[i]);
    EXPECT_EQ(copy.columns().cols()[i], copy.columns().col(i));
    for (size_t j = 0; j < net.size(); ++j) {
      EXPECT_EQ(copy.columns().col(i)[j], net.columns().col(i)[j]);
    }
  }
}

TEST(UtilityNetTest, DeterministicGivenSeed) {
  Rng a(9), b(9);
  const UtilityNet n1 = UtilityNet::SampleRandom(3, 50, &a);
  const UtilityNet n2 = UtilityNet::SampleRandom(3, 50, &b);
  for (size_t j = 0; j < 50; ++j) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(n1.columns().col(i)[j], n2.columns().col(i)[j]);
    }
  }
}

TEST(UtilityNetTest, Grid2DEndpointsAreAxes) {
  const UtilityNet net = UtilityNet::Grid2D(11);
  EXPECT_EQ(net.size(), 11u);
  const double* x = net.columns().col(0);
  const double* y = net.columns().col(1);
  EXPECT_NEAR(x[0], 0.0, 1e-12);  // theta=0 -> (0,1).
  EXPECT_NEAR(y[0], 1.0, 1e-12);
  EXPECT_NEAR(x[10], 1.0, 1e-12);  // theta=pi/2 -> (1,0).
  EXPECT_NEAR(y[10], 0.0, 1e-12);
  for (size_t j = 0; j < net.size(); ++j) {
    EXPECT_NEAR(NormL2(Direction(net, j).data(), 2), 1.0, 1e-12);
  }
}

TEST(UtilityNetTest, Grid2DIsDeltaNetByConstruction) {
  // 91 grid points over the quarter circle: spacing = (pi/2)/90 = 1 degree;
  // every direction is within half a degree of a grid point.
  const UtilityNet net = UtilityNet::Grid2D(91);
  Rng rng(3);
  const double half_step = 0.5 * (3.14159265358979323846 / 2.0) / 90.0;
  for (int t = 0; t < 500; ++t) {
    double u[2] = {std::fabs(rng.Normal()), std::fabs(rng.Normal())};
    NormalizeL2(u, 2);
    EXPECT_GE(net.CoverageCos(u), std::cos(half_step) - 1e-12);
  }
}

TEST(UtilityNetTest, RandomNetCoversDirectionsStatistically) {
  // With m = 2000 samples in 3D, random directions should be covered within
  // a generous angular tolerance (statistical sanity, not a hard bound).
  Rng rng(5);
  const UtilityNet net = UtilityNet::SampleRandom(3, 2000, &rng);
  int misses = 0;
  const double cos_tol = std::cos(0.12);
  for (int t = 0; t < 300; ++t) {
    double u[3] = {std::fabs(rng.Normal()), std::fabs(rng.Normal()),
                   std::fabs(rng.Normal())};
    NormalizeL2(u, 3);
    if (net.CoverageCos(u) < cos_tol) ++misses;
  }
  EXPECT_LT(misses, 10);
}

TEST(UtilityNetTest, DeltaToSampleSizeMonotone) {
  EXPECT_GT(UtilityNet::DeltaToSampleSize(0.05, 3),
            UtilityNet::DeltaToSampleSize(0.1, 3));
  EXPECT_GT(UtilityNet::DeltaToSampleSize(0.1, 5),
            UtilityNet::DeltaToSampleSize(0.1, 3));
  EXPECT_GE(UtilityNet::DeltaToSampleSize(0.9, 2), 2u);
}

TEST(UtilityNetTest, SampleSizeToDeltaInvertsRoughly) {
  const int d = 3;
  for (double delta : {0.05, 0.1, 0.2}) {
    const size_t m = UtilityNet::DeltaToSampleSize(delta, d);
    const double back = UtilityNet::SampleSizeToDelta(m, d);
    EXPECT_NEAR(back, delta, delta * 0.2);
  }
}

TEST(UtilityNetTest, MhrErrorBoundMatchesLemma) {
  // Lemma 4.1: error <= 2*delta*d / (1 + delta*d).
  EXPECT_NEAR(UtilityNet::MhrErrorBound(0.1, 2), 0.4 / 1.2, 1e-12);
  EXPECT_NEAR(UtilityNet::MhrErrorBound(0.0, 4), 0.0, 1e-12);
  EXPECT_LT(UtilityNet::MhrErrorBound(0.01, 6), 0.12);
}

}  // namespace
}  // namespace fairhms
