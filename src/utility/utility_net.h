// Utility nets: finite direction sets approximating the nonnegative unit
// sphere S^{d-1}_+ (delta-nets, Sec. 4.1 of the paper).
//
// A set N is a delta-net iff every u in S^{d-1}_+ has some v in N with
// <u, v> >= cos(delta). Sampling m = O(delta^{1-d} log(1/delta)) uniform
// directions yields a delta-net with constant probability; the experiments
// control m directly (m = 10kd by default, as in the paper).

#ifndef FAIRHMS_UTILITY_UTILITY_NET_H_
#define FAIRHMS_UTILITY_UTILITY_NET_H_

#include <cstddef>

#include "common/random.h"
#include "common/simd.h"

namespace fairhms {

/// An immutable set of unit utility vectors in R^d_+, stored once,
/// dimension-major: column i of columns() holds attribute i of every
/// direction, the layout the common/simd.h kernels read.
class UtilityNet {
 public:
  /// Largest net size a request may ask for or a delta may derive:
  /// DeltaToSampleSize caps at it, and the sampled-net algorithms'
  /// net-size parameters refuse more.
  static constexpr size_t kMaxSize = 50'000'000;

  /// m directions sampled uniformly on S^{d-1}_+ (|Normal| coordinates,
  /// l2-normalized). Deterministic given the Rng state.
  static UtilityNet SampleRandom(int d, size_t m, Rng* rng);

  /// Evenly spaced directions on the quarter circle (d = 2 only), endpoints
  /// (0,1) and (1,0) included. m >= 2.
  static UtilityNet Grid2D(size_t m);

  /// Sample size that makes a random net a delta-net w.h.p.:
  /// ceil((c/delta)^(d-1) * ln(c/delta)) with c = 2, floored at d and
  /// capped at kMaxSize.
  static size_t DeltaToSampleSize(double delta, int d);

  /// The delta achieved (in the Lemma 4.1 sense) by m random samples —
  /// inverse of DeltaToSampleSize, up to rounding.
  static double SampleSizeToDelta(size_t m, int d);

  /// Error bound of Lemma 4.1: net-estimated mhr exceeds the true mhr by at
  /// most 2*delta*d / (1 + delta*d).
  static double MhrErrorBound(double delta, int d);

  size_t size() const { return cols_.rows(); }
  int dim() const { return cols_.dim(); }
  /// The directions, dimension-major (column i, row j = u_j[i]).
  const simd::ColumnBlock& columns() const { return cols_; }

  /// <u_j, p>: the products u_j[i] * p[i] summed for i = 0, 1, ... in order,
  /// bit for bit Dot(u_j, p, dim()) (geom/vec.h).
  double DotWith(size_t j, const double* p) const {
    const double* const* cols = cols_.cols();
    double s = 0.0;
    for (int i = 0; i < dim(); ++i) s += cols[i][j] * p[i];
    return s;
  }

  /// max over the net of <u, v> — used by tests to verify net coverage of a
  /// direction u (compare against cos(delta)).
  double CoverageCos(const double* u) const;

 private:
  UtilityNet(int d, size_t m) : cols_(d) { cols_.ResizeRows(m); }

  simd::ColumnBlock cols_;
};

}  // namespace fairhms

#endif  // FAIRHMS_UTILITY_UTILITY_NET_H_
