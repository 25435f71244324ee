#ifndef CHAMELEON_BASELINES_RADIXSPLINE_RADIX_SPLINE_H_
#define CHAMELEON_BASELINES_RADIXSPLINE_RADIX_SPLINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/baselines/common/sorted_run.h"

namespace chameleon {

/// RadixSpline baseline (Kipf et al., aiDM@SIGMOD 2020): a single-pass
/// error-bounded greedy spline over the key CDF, indexed by a radix
/// table over key prefix bits.
///
/// Lookup: radix table narrows to a spline-point range, binary search
/// finds the surrounding spline knots, linear interpolation predicts the
/// rank, and a +-epsilon window of the data is binary searched.
///
/// RS is a static index (the paper drops it from update experiments); to
/// satisfy the common KvIndex contract, updates go through the shared
/// delta overlay (api/delta_overlay.h: a B+Tree delta and tombstones
/// over the modelled run, baselines/common/sorted_run.h), and the spline
/// and radix table are rebuilt over the merged run once the delta
/// exceeds max(1024, n/16) — correct, but not update-optimized.
class RadixSpline final : public SortedRunIndex {
 public:
  explicit RadixSpline(size_t epsilon = 32, size_t radix_bits = 18);

  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return "RS"; }

 private:
  struct SplinePoint {
    Key key;
    double rank;
  };

  const KeyValue* FindInRun(Key key) const override;
  void BuildModel() override;
  void BuildSpline();
  void BuildRadixTable();
  /// Rank prediction for `key` within run() (clamped).
  size_t PredictRank(Key key) const;

  size_t epsilon_;
  size_t radix_bits_;

  std::vector<SplinePoint> spline_;
  std::vector<uint32_t> radix_table_;    // prefix -> first spline index
  Key min_key_ = 0;
  int shift_ = 0;                        // bits to shift (key - min) right
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_RADIXSPLINE_RADIX_SPLINE_H_
