// Dense vector kernels on raw double spans.
//
// Points and utility vectors are stored row-major in flat arrays throughout
// the library; these helpers are the only place that loops over coordinates.

#ifndef FAIRHMS_GEOM_VEC_H_
#define FAIRHMS_GEOM_VEC_H_

#include <cmath>
#include <cstddef>

namespace fairhms {

/// Inner product <a, b> over d coordinates.
inline double Dot(const double* a, const double* b, size_t d) {
  double s = 0.0;
  for (size_t i = 0; i < d; ++i) s += a[i] * b[i];
  return s;
}

/// Euclidean norm.
inline double NormL2(const double* a, size_t d) {
  return std::sqrt(Dot(a, a, d));
}

/// Sum of coordinates (l1 norm for nonnegative vectors).
inline double SumCoords(const double* a, size_t d) {
  double s = 0.0;
  for (size_t i = 0; i < d; ++i) s += a[i];
  return s;
}

/// Scales `a` to unit l2 norm in place. No-op on the zero vector.
inline void NormalizeL2(double* a, size_t d) {
  const double n = NormL2(a, d);
  if (n > 0.0) {
    for (size_t i = 0; i < d; ++i) a[i] /= n;
  }
}

}  // namespace fairhms

#endif  // FAIRHMS_GEOM_VEC_H_
