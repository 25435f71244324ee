#ifndef CHAMELEON_WORKLOAD_KEY_CHOOSER_H_
#define CHAMELEON_WORKLOAD_KEY_CHOOSER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/util/random.h"

namespace chameleon {

/// Chooses which *rank* of the live key set the next read-class
/// operation targets. The one shared definition of request skew: every
/// generator (paper figures, YCSB mixes, inspect drives) samples
/// through a chooser, so "zipf 0.99" or "5% drifting hotspot" can never
/// mean different things in different benches.
///
/// `NextRank(n, rng)` returns a rank in [0, n); n is the live-set size
/// at call time (it changes under write-bearing mixes). Uniform draws
/// come from the caller's `rng` so choosers compose into one
/// deterministic stream; distribution-shaped choosers (zipf, latest)
/// precompute their CDF over the initial cardinality with a seed drawn
/// once at construction — the draw order the golden-stream hashes pin
/// for `read(zipf=T)` — and fold out-of-range ranks back into [0, n).
class KeyChooser {
 public:
  virtual ~KeyChooser() = default;
  /// `n` must be > 0.
  virtual size_t NextRank(size_t n, Rng& rng) = 0;
};

/// Uniform over all live ranks: rng.NextBounded(n), the original
/// MakeLookup draw.
class UniformChooser final : public KeyChooser {
 public:
  size_t NextRank(size_t n, Rng& rng) override { return rng.NextBounded(n); }
};

/// Zipf over ranks, rank 0 most popular (theta 0.99 = YCSB default).
class ZipfChooser final : public KeyChooser {
 public:
  ZipfChooser(size_t n, double theta, uint64_t seed)
      : sampler_(n == 0 ? 1 : n, theta, seed) {}

  size_t NextRank(size_t n, Rng& /*rng*/) override {
    const size_t r = sampler_.Sample();
    return r < n ? r : r % n;
  }

 private:
  ZipfSampler sampler_;
};

/// YCSB "latest": zipf-shaped recency — rank distance is sampled from
/// a zipf and measured back from the most recently inserted key (the
/// live set's highest rank, since inserts push_back).
class LatestChooser final : public KeyChooser {
 public:
  LatestChooser(size_t n, double theta, uint64_t seed)
      : sampler_(n == 0 ? 1 : n, theta, seed) {}

  size_t NextRank(size_t n, Rng& /*rng*/) override {
    const size_t back = sampler_.Sample() % n;
    return n - 1 - back;
  }

 private:
  ZipfSampler sampler_;
};

/// Drifting hotspot: a window of `width` (fraction of ranks, (0, 1])
/// receives `hot` of the traffic; every `period` operations the window
/// advances by its own width (wrapping), so the hot key range moves
/// mid-run — the time-varying local skew Chameleon targets. The
/// remaining 1 - hot of picks are uniform over all ranks.
class HotspotChooser final : public KeyChooser {
 public:
  HotspotChooser(double width, uint64_t period, double hot)
      : width_(width), period_(period == 0 ? 1 : period), hot_(hot) {}

  size_t NextRank(size_t n, Rng& rng) override {
    const uint64_t step = ops_issued_++ / period_;
    const size_t w = WindowWidth(n);
    const size_t start = static_cast<size_t>((step * w) % n);
    if (rng.NextDouble() < hot_) {
      return (start + rng.NextBounded(w)) % n;
    }
    return rng.NextBounded(n);
  }

  /// Window geometry at a given point in the stream, for tests and
  /// tooling that assert the drift actually moves.
  size_t WindowWidth(size_t n) const {
    const size_t w = static_cast<size_t>(width_ * static_cast<double>(n));
    return w == 0 ? 1 : (w > n ? n : w);
  }
  size_t WindowStartAt(uint64_t op_index, size_t n) const {
    const size_t w = WindowWidth(n);
    return static_cast<size_t>(((op_index / period_) * w) % n);
  }

 private:
  double width_;
  uint64_t period_;
  double hot_;
  uint64_t ops_issued_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_WORKLOAD_KEY_CHOOSER_H_
