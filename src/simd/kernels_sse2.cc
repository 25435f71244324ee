// SSE2 tier: 2x64-bit lanes. SSE2 is the x86-64 baseline, so this TU
// needs no extra compiler flags and serves as the guaranteed-present
// vector tier on every x86-64 build with CHAMELEON_SIMD=ON. Pure SSE2
// has no 64-bit compare, so equality is synthesized from the 32-bit
// compare; it has no unsigned 64-bit ordering at all, so this tier
// borrows the scalar gather for range_collect (range_name records that).

#include "src/simd/kernels_impl.h"

#if defined(CHAMELEON_SIMD_ENABLED) && \
    (defined(__x86_64__) || defined(_M_X64))

#include <emmintrin.h>

namespace chameleon::simd::detail {
namespace {

struct Sse2Traits {
  static constexpr size_t kLanes = 2;
  using Vec = __m128i;
  static Vec Broadcast(Key k) {
    return _mm_set1_epi64x(static_cast<long long>(k));
  }
  static Vec LoadU(const Key* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static uint32_t EqMask(Vec v, Vec needle) {
    // 64-bit equality from the 32-bit compare: a lane matches iff both
    // of its 32-bit halves match, i.e. the AND of the compare result
    // with its half-swapped self is all-ones — then bit 63 of each lane
    // (what movemask_pd reads) is the full-lane verdict.
    const __m128i eq32 = _mm_cmpeq_epi32(v, needle);
    const __m128i swapped = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1));
    return static_cast<uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_and_si128(eq32, swapped))));
  }
};

}  // namespace

const ProbeKernels* Sse2Kernels() {
  static constexpr ProbeKernels kTable = {
      SimdLevel::kSse2,
      "sse2",
      &Kernels<Sse2Traits>::FindInWindow,
      &Kernels<Sse2Traits>::FindNearest,
      &ScalarRangeCollect,
      "scalar",
      &ScalarRangeCollectSorted,
      "scalar",
  };
  return &kTable;
}

}  // namespace chameleon::simd::detail

#else  // tier not buildable on this configuration

namespace chameleon::simd::detail {
const ProbeKernels* Sse2Kernels() { return nullptr; }
}  // namespace chameleon::simd::detail

#endif
