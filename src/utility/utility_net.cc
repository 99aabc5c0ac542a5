#include "utility/utility_net.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace fairhms {

UtilityNet UtilityNet::SampleRandom(int d, size_t m, Rng* rng) {
  assert(d >= 1 && m >= 1);
  UtilityNet net(d, m);
  std::vector<double> v(static_cast<size_t>(d));
  for (size_t j = 0; j < m; ++j) {
    double norm_sq = 0.0;
    do {
      norm_sq = 0.0;
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] = std::fabs(rng->Normal());
        norm_sq += v[i] * v[i];
      }
    } while (norm_sq <= 1e-30);
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (int i = 0; i < d; ++i) {
      net.cols_.mutable_col(i)[j] = v[static_cast<size_t>(i)] * inv;
    }
  }
  return net;
}

UtilityNet UtilityNet::Grid2D(size_t m) {
  assert(m >= 2);
  UtilityNet net(2, m);
  for (size_t j = 0; j < m; ++j) {
    const double theta =
        (static_cast<double>(j) / static_cast<double>(m - 1)) *
        (3.14159265358979323846 / 2.0);
    net.cols_.mutable_col(0)[j] = std::sin(theta);  // Attribute 0's weight.
    net.cols_.mutable_col(1)[j] = std::cos(theta);  // Attribute 1's weight.
  }
  return net;
}

size_t UtilityNet::DeltaToSampleSize(double delta, int d) {
  assert(delta > 0.0 && delta < 1.0 && d >= 1);
  const double c_over_delta = 2.0 / delta;
  const double m =
      std::pow(c_over_delta, d - 1) * std::log(c_over_delta);
  const double capped = std::min(m, static_cast<double>(kMaxSize));
  return std::max<size_t>(static_cast<size_t>(d),
                          static_cast<size_t>(std::ceil(capped)));
}

double UtilityNet::SampleSizeToDelta(size_t m, int d) {
  assert(m >= 1 && d >= 1);
  if (d == 1) return 1e-9;
  // Invert m = (2/delta)^(d-1) * ln(2/delta) by bisection on delta.
  double lo = 1e-9;
  double hi = 0.999999;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (DeltaToSampleSize(mid, d) > m) {
      lo = mid;  // Need larger delta (smaller net).
    } else {
      hi = mid;
    }
  }
  return hi;
}

double UtilityNet::MhrErrorBound(double delta, int d) {
  const double dd = delta * d;
  return 2.0 * dd / (1.0 + dd);
}

double UtilityNet::CoverageCos(const double* u) const {
  double best = -1.0;
  for (size_t j = 0; j < size(); ++j) best = std::max(best, DotWith(j, u));
  return best;
}

}  // namespace fairhms
