// NEON tier: 2x64-bit lanes, aarch64 only (A64 guarantees AdvSIMD, so
// no runtime feature check is needed — dispatch.cc treats NEON as
// always-supported on aarch64). vceqq/vcgeq/vcleq_u64 give native
// 64-bit equality and unsigned ordering; the 2-bit mask is assembled
// from lane extracts. With two lanes there is no compress worth having,
// so range_collect_sorted borrows the scalar kernel.

#include "src/simd/kernels_impl.h"

#if defined(CHAMELEON_SIMD_ENABLED) && defined(__aarch64__) && \
    defined(__ARM_NEON)

#include <arm_neon.h>

namespace chameleon::simd::detail {
namespace {

struct NeonTraits {
  static constexpr size_t kLanes = 2;
  using Vec = uint64x2_t;
  static Vec Broadcast(Key k) { return vdupq_n_u64(k); }
  static Vec LoadU(const Key* p) { return vld1q_u64(p); }
  static uint32_t MaskOf(Vec lanes_all_ones) {
    return static_cast<uint32_t>(vgetq_lane_u64(lanes_all_ones, 0) & 1) |
           (static_cast<uint32_t>(vgetq_lane_u64(lanes_all_ones, 1) & 1)
            << 1);
  }
  static uint32_t EqMask(Vec v, Vec needle) {
    return MaskOf(vceqq_u64(v, needle));
  }

  struct RangeCtx {
    Vec lo, hi, sent;
  };
  static RangeCtx MakeRangeCtx(Key lo, Key hi, Key sentinel) {
    return {Broadcast(lo), Broadcast(hi), Broadcast(sentinel)};
  }
  static uint32_t RangeMask(Vec v, const RangeCtx& ctx) {
    const Vec ge = vcgeq_u64(v, ctx.lo);
    const Vec le = vcleq_u64(v, ctx.hi);
    const Vec ne = veorq_u64(vceqq_u64(v, ctx.sent), vdupq_n_u64(~0ULL));
    return MaskOf(vandq_u64(vandq_u64(ge, le), ne));
  }
};

}  // namespace

const ProbeKernels* NeonKernels() {
  static constexpr ProbeKernels kTable = {
      SimdLevel::kNeon,
      "neon",
      &Kernels<NeonTraits>::FindInWindow,
      &Kernels<NeonTraits>::FindNearest,
      &Kernels<NeonTraits>::RangeCollect,
      "neon",
      &ScalarRangeCollectSorted,
      "scalar",
  };
  return &kTable;
}

}  // namespace chameleon::simd::detail

#else  // tier not buildable on this configuration

namespace chameleon::simd::detail {
const ProbeKernels* NeonKernels() { return nullptr; }
}  // namespace chameleon::simd::detail

#endif
