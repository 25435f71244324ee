#ifndef CHAMELEON_BASELINES_COMMON_LINE_FIT_H_
#define CHAMELEON_BASELINES_COMMON_LINE_FIT_H_

#include <span>

#include "src/api/kv_index.h"

namespace chameleon {

struct Line {
  double slope = 0.0;
  double intercept = 0.0;
};

/// Least-squares fit of y = slope * x + intercept over the points
/// (data[i].key - origin, i * scale); keys are centred on `origin` for
/// numeric stability. Returns {0, 0} for fewer than two points or when
/// every key is equal.
inline Line FitLine(std::span<const KeyValue> data, Key origin,
                    double scale) {
  Line line;
  const size_t n = data.size();
  if (n < 2) return line;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double x =
        static_cast<double>(data[i].key) - static_cast<double>(origin);
    const double y = static_cast<double>(i) * scale;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double nn = static_cast<double>(n);
  const double denom = nn * sxx - sx * sx;
  if (denom > 0.0) {
    line.slope = (nn * sxy - sx * sy) / denom;
    line.intercept = (sy - line.slope * sx) / nn;
  }
  return line;
}

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_COMMON_LINE_FIT_H_
