// AVX2 kernel table: the vector body of simd_kernels.h at W = 4. This is
// the only translation unit compiled with -mavx2 (x86-64 targets only),
// and its table runs solely behind the runtime CPU check in simd.cc.
// Everything the header defines has internal linkage, so nothing compiled
// here can stand in for the baseline code elsewhere in the link; the
// simd.avx2_exports test checks that Avx2Kernels() is the only symbol this
// object exports.

#include "common/simd_kernels.h"

namespace fairhms {
namespace simd {
namespace internal {

const KernelTable* Avx2Kernels() {
#if defined(__AVX2__)
  static constexpr KernelTable table = MakeTable<4>(DispatchLevel::kAvx2);
  return &table;
#else
  return nullptr;
#endif
}

}  // namespace internal
}  // namespace simd
}  // namespace fairhms
