#ifndef CHAMELEON_OBS_LATENCY_HISTOGRAM_H_
#define CHAMELEON_OBS_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace chameleon::obs {

/// Fixed-bucket log-scale (HDR-style) latency histogram.
///
/// Values (nanoseconds) are binned into octaves of 2^kSubBucketBits
/// linear sub-buckets each, so the relative quantization error is below
/// 2^-kSubBucketBits (< 0.8%) across the whole 64-bit range while the
/// footprint stays constant (~58 KiB) no matter how many samples are
/// recorded. Values below 2^kSubBucketBits (256 ns) are exact.
///
/// Recording is wait-free and thread-safe: one relaxed fetch_add on the
/// bucket plus count/sum/extrema maintenance, no allocation ever. Per
/// thread instances can be combined with Merge(); reads (percentiles,
/// mean) are safe concurrently with writers and see a near-consistent
/// view (statistics, not synchronization).
///
/// This replaces the sort-a-copy percentile path of the original
/// LatencyRecorder, which kept every sample and re-sorted the full
/// vector on each percentile call.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 8;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;
  /// Octave 0 covers [0, kSubBuckets) exactly; octaves 1..(64 -
  /// kSubBucketBits) cover the rest of the uint64 range.
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits + 1) * kSubBuckets;

  /// The empty histogram is all zero bits, so one at namespace scope is
  /// constant-initialized: nothing runs when the program loads, and no
  /// first use waits on its construction (the phase histograms rely on
  /// this).
  constexpr LatencyHistogram() noexcept = default;
  LatencyHistogram(const LatencyHistogram& other) { CopyFrom(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Records one sample; negative values clamp to 0.
  void Record(int64_t nanos) noexcept {
    const uint64_t v = nanos > 0 ? static_cast<uint64_t>(nanos) : 0;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v,
                                                std::memory_order_relaxed)) {
    }
    m = min_complement_.load(std::memory_order_relaxed);
    while (~v > m && !min_complement_.compare_exchange_weak(
                         m, ~v, std::memory_order_relaxed)) {
    }
  }

  /// Adds another histogram's contents into this one.
  void Merge(const LatencyHistogram& other) noexcept;

  void Clear() noexcept;

  uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Exact arithmetic mean (tracked sum / count); 0 when empty.
  double MeanNanos() const noexcept;
  /// Exact extrema; 0 when empty.
  double MaxNanos() const noexcept;
  double MinNanos() const noexcept;

  /// Percentile in [0, 100] with the same rank interpolation as a
  /// sorted-vector percentile, quantized to bucket resolution (relative
  /// error < 2^-kSubBucketBits); 0 when empty.
  double PercentileNanos(double pct) const noexcept;

  // --- Bucket scheme (exposed for tests) -----------------------------------

  static size_t BucketIndex(uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    const size_t octave = static_cast<size_t>(msb - kSubBucketBits + 1);
    const size_t sub = static_cast<size_t>((v >> shift) & (kSubBuckets - 1));
    return octave * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket `idx`.
  static uint64_t BucketLow(size_t idx) noexcept {
    const size_t octave = idx >> kSubBucketBits;
    const uint64_t sub = idx & (kSubBuckets - 1);
    if (octave == 0) return sub;
    return (kSubBuckets + sub) << (octave - 1);
  }

  /// Number of distinct values mapping to bucket `idx`.
  static uint64_t BucketWidth(size_t idx) noexcept {
    const size_t octave = idx >> kSubBucketBits;
    return octave == 0 ? 1 : uint64_t{1} << (octave - 1);
  }

 private:
  void CopyFrom(const LatencyHistogram& other) noexcept;

  /// Representative value reported for samples in bucket `idx` (bucket
  /// midpoint; exact for width-1 buckets).
  static double BucketMid(size_t idx) noexcept {
    return static_cast<double>(BucketLow(idx)) +
           static_cast<double>(BucketWidth(idx) - 1) * 0.5;
  }

  /// Value at 0-based rank `r` (as if samples were sorted ascending).
  double ValueAtRank(uint64_t r) const noexcept;

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  /// ~min, the largest complement of a sample: 0 when empty, like the
  /// rest of the state.
  std::atomic<uint64_t> min_complement_{0};
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_LATENCY_HISTOGRAM_H_
