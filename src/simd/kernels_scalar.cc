#include "src/simd/kernels_impl.h"

namespace chameleon::simd {

const ProbeKernels& ScalarKernels() {
  static constexpr ProbeKernels kScalarTable = {
      SimdLevel::kScalar,
      "scalar",
      &detail::ScalarFindInWindow,
      &detail::ScalarFindNearest,
      &detail::ScalarRangeCollect,
      "scalar",
      &detail::ScalarRangeCollectSorted,
      "scalar",
  };
  return kScalarTable;
}

}  // namespace chameleon::simd
