// AVX-512 tier: 8x64-bit lanes with mask-register compares — the whole
// default-cd probe window of a healthy leaf fits in one compare.
// Compiled with -mavx512f (per-file flag in src/CMakeLists.txt) and only
// dispatched to after the runtime cpuid check, so the same binary runs
// on non-AVX-512 hosts. AVX-512F has native unsigned 64-bit ordering
// (_mm512_cmp_epu64_mask), so no bias trick is needed, and vpcompressq
// packs a block's range hits for the sorted gather in one instruction.

#include "src/simd/kernels_impl.h"

#if defined(CHAMELEON_SIMD_ENABLED) && defined(__AVX512F__)

#include <immintrin.h>

namespace chameleon::simd::detail {
namespace {

struct Avx512Traits {
  static constexpr size_t kLanes = 8;
  using Vec = __m512i;
  static Vec Broadcast(Key k) {
    return _mm512_set1_epi64(static_cast<long long>(k));
  }
  static Vec LoadU(const Key* p) { return _mm512_loadu_si512(p); }
  static uint32_t EqMask(Vec v, Vec needle) {
    return static_cast<uint32_t>(_mm512_cmpeq_epi64_mask(v, needle));
  }

  struct RangeCtx {
    Vec lo, hi, sent;
  };
  static RangeCtx MakeRangeCtx(Key lo, Key hi, Key sentinel) {
    return {Broadcast(lo), Broadcast(hi), Broadcast(sentinel)};
  }
  static uint32_t RangeMask(Vec v, const RangeCtx& ctx) {
    const __mmask8 ge = _mm512_cmp_epu64_mask(v, ctx.lo, _MM_CMPINT_NLT);
    const __mmask8 le = _mm512_cmp_epu64_mask(v, ctx.hi, _MM_CMPINT_LE);
    const __mmask8 ne = _mm512_cmpneq_epi64_mask(v, ctx.sent);
    return static_cast<uint32_t>(ge & le & ne);
  }

  static Vec Compress(Vec v, uint32_t m) {
    return _mm512_maskz_compress_epi64(static_cast<__mmask8>(m), v);
  }
  static void StoreU(uint64_t* p, Vec v) { _mm512_storeu_si512(p, v); }
  static Vec Zero() { return _mm512_setzero_si512(); }
  static Vec Add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
  static Vec CountLess(Vec acc, Vec needle, Vec v) {
    return _mm512_mask_add_epi64(acc, _mm512_cmplt_epu64_mask(needle, v),
                                 acc, _mm512_set1_epi64(1));
  }
};

}  // namespace

const ProbeKernels* Avx512Kernels() {
  static constexpr ProbeKernels kTable = {
      SimdLevel::kAvx512,
      "avx512",
      &Kernels<Avx512Traits>::FindInWindow,
      &Kernels<Avx512Traits>::FindNearest,
      &Kernels<Avx512Traits>::RangeCollect,
      "avx512",
      &Kernels<Avx512Traits>::RangeCollectSorted,
      "avx512",
  };
  return &kTable;
}

}  // namespace chameleon::simd::detail

#else  // tier not buildable on this configuration

namespace chameleon::simd::detail {
const ProbeKernels* Avx512Kernels() { return nullptr; }
}  // namespace chameleon::simd::detail

#endif
