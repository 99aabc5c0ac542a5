#include "utility/utility_net.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geom/vec.h"

namespace fairhms {

UtilityNet UtilityNet::SampleRandom(int d, size_t m, Rng* rng) {
  assert(d >= 1 && m >= 1);
  UtilityNet net(d, m);
  for (size_t j = 0; j < m; ++j) {
    double* v = &net.vecs_[j * static_cast<size_t>(d)];
    double norm_sq = 0.0;
    do {
      norm_sq = 0.0;
      for (int i = 0; i < d; ++i) {
        v[i] = std::fabs(rng->Normal());
        norm_sq += v[i] * v[i];
      }
    } while (norm_sq <= 1e-30);
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (int i = 0; i < d; ++i) v[i] *= inv;
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
    net.vecs_[2 * j] = std::sin(theta);      // Weight on attribute 0.
    net.vecs_[2 * j + 1] = std::cos(theta);  // Weight on attribute 1.
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
  for (size_t j = 0; j < m_; ++j) {
    best = std::max(best, Dot(u, vec(j), static_cast<size_t>(d_)));
  }
  return best;
}

}  // namespace fairhms
