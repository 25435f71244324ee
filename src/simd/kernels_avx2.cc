// AVX2 tier: 4x64-bit lanes. Compiled with -mavx2 (per-file flag in
// src/CMakeLists.txt) and only ever dispatched to after the runtime
// cpuid check in dispatch.cc, so one binary can carry this TU and still
// run on pre-AVX2 silicon. AVX2 has only *signed* 64-bit ordering, so
// the unsigned range compares bias both sides by 2^63 first.

#include "src/simd/kernels_impl.h"

#if defined(CHAMELEON_SIMD_ENABLED) && defined(__AVX2__)

#include <immintrin.h>

namespace chameleon::simd::detail {
namespace {

/// AVX2 has no lane compress: entry m is the vpermd index vector that
/// moves the 64-bit lanes set in the 4-bit mask m to the bottom, in
/// order (each 64-bit lane is the 32-bit pair 2j, 2j+1).
struct CompressTable {
  alignas(32) uint32_t idx[16][8];
  constexpr CompressTable() : idx{} {
    for (uint32_t m = 0; m < 16; ++m) {
      uint32_t out = 0;
      for (uint32_t lane = 0; lane < 4; ++lane) {
        if ((m >> lane & 1u) == 0) continue;
        idx[m][2 * out] = 2 * lane;
        idx[m][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
    }
  }
};
constexpr CompressTable kCompress;

struct Avx2Traits {
  static constexpr size_t kLanes = 4;
  using Vec = __m256i;
  static Vec Broadcast(Key k) {
    return _mm256_set1_epi64x(static_cast<long long>(k));
  }
  static Vec LoadU(const Key* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static uint32_t EqMask(Vec v, Vec needle) {
    return static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle))));
  }

  struct RangeCtx {
    Vec bias;       // 2^63 in every lane: unsigned -> signed order bias
    Vec lo_biased;  // lo ^ 2^63
    Vec hi_biased;  // hi ^ 2^63
    Vec sent;       // sentinel, unbiased (equality needs no bias)
  };
  static RangeCtx MakeRangeCtx(Key lo, Key hi, Key sentinel) {
    const Vec bias = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
    return {bias,
            _mm256_xor_si256(Broadcast(lo), bias),
            _mm256_xor_si256(Broadcast(hi), bias),
            Broadcast(sentinel)};
  }
  static uint32_t RangeMask(Vec v, const RangeCtx& ctx) {
    const Vec vb = _mm256_xor_si256(v, ctx.bias);
    const Vec lt_lo = _mm256_cmpgt_epi64(ctx.lo_biased, vb);  // v < lo
    const Vec gt_hi = _mm256_cmpgt_epi64(vb, ctx.hi_biased);  // v > hi
    const Vec is_sent = _mm256_cmpeq_epi64(v, ctx.sent);
    const Vec excluded =
        _mm256_or_si256(_mm256_or_si256(lt_lo, gt_hi), is_sent);
    const uint32_t out_mask = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(excluded)));
    return ~out_mask & 0xFu;
  }

  static Vec Compress(Vec v, uint32_t m) {
    return _mm256_permutevar8x32_epi32(
        v, _mm256_load_si256(
               reinterpret_cast<const __m256i*>(kCompress.idx[m])));
  }
  static void StoreU(uint64_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec Zero() { return _mm256_setzero_si256(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
  static Vec CountLess(Vec acc, Vec needle, Vec v) {
    // Unsigned needle < v as a signed compare of both sides biased by
    // 2^63, as in RangeMask; true lanes are all-ones (-1), so
    // subtracting the compare counts them.
    const Vec bias = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
    const Vec lt = _mm256_cmpgt_epi64(_mm256_xor_si256(v, bias),
                                      _mm256_xor_si256(needle, bias));
    return _mm256_sub_epi64(acc, lt);
  }
};

}  // namespace

const ProbeKernels* Avx2Kernels() {
  static constexpr ProbeKernels kTable = {
      SimdLevel::kAvx2,
      "avx2",
      &Kernels<Avx2Traits>::FindInWindow,
      &Kernels<Avx2Traits>::FindNearest,
      &Kernels<Avx2Traits>::RangeCollect,
      "avx2",
      &Kernels<Avx2Traits>::RangeCollectSorted,
      "avx2",
  };
  return &kTable;
}

}  // namespace chameleon::simd::detail

#else  // tier not buildable on this configuration

namespace chameleon::simd::detail {
const ProbeKernels* Avx2Kernels() { return nullptr; }
}  // namespace chameleon::simd::detail

#endif
