#include "src/obs/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace chameleon::obs {

void LatencyHistogram::Clear() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  min_complement_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::CopyFrom(const LatencyHistogram& other) noexcept {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  min_complement_.store(
      other.min_complement_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) noexcept {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  uint64_t v = other.max_.load(std::memory_order_relaxed);
  uint64_t m = max_.load(std::memory_order_relaxed);
  while (v > m && !max_.compare_exchange_weak(m, v,
                                              std::memory_order_relaxed)) {
  }
  v = other.min_complement_.load(std::memory_order_relaxed);
  m = min_complement_.load(std::memory_order_relaxed);
  while (v > m && !min_complement_.compare_exchange_weak(
                      m, v, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::MeanNanos() const noexcept {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::MaxNanos() const noexcept {
  return count() == 0
             ? 0.0
             : static_cast<double>(max_.load(std::memory_order_relaxed));
}

double LatencyHistogram::MinNanos() const noexcept {
  return count() == 0
             ? 0.0
             : static_cast<double>(
                   ~min_complement_.load(std::memory_order_relaxed));
}

double LatencyHistogram::ValueAtRank(uint64_t r) const noexcept {
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    cum += c;
    if (cum > r) return BucketMid(i);
  }
  return static_cast<double>(max_.load(std::memory_order_relaxed));
}

double LatencyHistogram::PercentileNanos(double pct) const noexcept {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  // Same rank interpolation as sorting the samples and indexing at
  // pct/100 * (n-1) — keeps parity with the old LatencyRecorder.
  const double rank = pct / 100.0 * static_cast<double>(n - 1);
  const uint64_t lo = static_cast<uint64_t>(std::floor(rank));
  const uint64_t hi = static_cast<uint64_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  const double v_lo = ValueAtRank(lo);
  const double v_hi = hi == lo ? v_lo : ValueAtRank(hi);
  return v_lo * (1.0 - frac) + v_hi * frac;
}

}  // namespace chameleon::obs
