#ifndef CHAMELEON_BASELINES_COMMON_SHRINKING_CONE_H_
#define CHAMELEON_BASELINES_COMMON_SHRINKING_CONE_H_

#include <algorithm>
#include <cstddef>
#include <limits>

namespace chameleon {

/// Greedy shrinking-cone segmentation (PGM-index) of the points
/// (get_x(i), i), i in [0, n), with error bound epsilon. Calls
/// emit(start, slope) once per segment, left to right; the segment
/// predicts start + slope * (x - get_x(start)) and stays within epsilon
/// of i for every point it covers. A point whose x equals the segment's
/// first x stays in the segment; a single-point segment has slope 0.
template <typename GetX, typename Emit>
void ShrinkingConeSegments(size_t n, GetX get_x, size_t epsilon, Emit emit) {
  if (n == 0) return;
  const double eps = static_cast<double>(epsilon);

  size_t start = 0;
  double slope_lo = 0.0;
  double slope_hi = std::numeric_limits<double>::infinity();
  for (size_t i = 1; i <= n; ++i) {
    if (i < n) {
      const double dx = static_cast<double>(get_x(i)) -
                        static_cast<double>(get_x(start));
      const double dy = static_cast<double>(i - start);
      if (dx <= 0.0) continue;  // duplicate x: keep in the same segment
      const double lo = (dy - eps) / dx;
      const double hi = (dy + eps) / dx;
      const double new_lo = std::max(slope_lo, lo);
      const double new_hi = std::min(slope_hi, hi);
      if (new_lo <= new_hi) {
        slope_lo = new_lo;
        slope_hi = new_hi;
        continue;
      }
    }
    // Close the current segment [start, i).
    emit(start, slope_hi == std::numeric_limits<double>::infinity()
                    ? 0.0
                    : (slope_lo + slope_hi) / 2.0);
    if (i < n) {
      start = i;
      slope_lo = 0.0;
      slope_hi = std::numeric_limits<double>::infinity();
    }
  }
}

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_COMMON_SHRINKING_CONE_H_
