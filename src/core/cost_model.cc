#include "src/core/cost_model.h"

#include <algorithm>
#include <cmath>

namespace chameleon {

double EbhLeafTimeCost(size_t n, double tau) {
  if (n <= 1) return 1.0;
  // One hash evaluation plus the expected bounded scan: the conflict
  // degree of a fixed-load hash table grows slowly with n, and tau
  // scales how often scans happen. The log2 growth (vs the ~0.5 hop
  // cost below) sets the crossover at which splitting a node pays off.
  return 1.0 + tau * std::log2(static_cast<double>(n) + 1.0);
}

namespace {

// -ln(1 - tau) for tau clamped into (0, 1): Theorem 1's capacity divisor.
double CapacityDivisor(double tau) {
  return -std::log(1.0 - std::clamp(tau, 1e-6, 1.0 - 1e-6));
}

// EbhLeafMemCost for n >= 1 given CapacityDivisor(tau).
double LeafMemCost(size_t n, double divisor) {
  const double cap = std::max(static_cast<double>(n - 1) / divisor,
                              static_cast<double>(n) * 1.125);
  return (cap + kLeafFixedOverheadSlots) / static_cast<double>(n);
}

}  // namespace

double EbhLeafMemCost(size_t n, double tau) {
  if (n == 0) return 1.0;
  return LeafMemCost(n, CapacityDivisor(tau));
}

double LeafCost(size_t total, double tau, double w_time, double w_mem) {
  return w_time * EbhLeafTimeCost(total, tau) +
         w_mem * EbhLeafMemCost(std::max<size_t>(total, 1), tau);
}

TimeMemCost RefinedNodeCost(size_t total, double tau) {
  const double divisor = CapacityDivisor(tau);
  TimeMemCost best = {EbhLeafTimeCost(total, tau),
                      LeafMemCost(std::max<size_t>(total, 1), divisor)};
  if (total == 0) return best;
  for (int a = 1; a <= 10; ++a) {
    const size_t fanout = size_t{1} << a;
    const size_t child = (total + fanout - 1) / fanout;
    best.time =
        std::min(best.time, kInnerHopTimeCost + EbhLeafTimeCost(child, tau));
    best.mem = std::min(best.mem, kInnerChildMemCost *
                                          static_cast<double>(fanout) /
                                          static_cast<double>(total) +
                                      LeafMemCost(child, divisor));
  }
  return best;
}

double PartitionCost(std::span<const size_t> child_counts, size_t total,
                     double tau, double w_time, double w_mem) {
  return PartitionCostWeighted(child_counts, {}, total, 0, tau, w_time,
                               w_mem);
}

double PartitionCostWeighted(std::span<const size_t> child_counts,
                             std::span<const size_t> access_counts,
                             size_t total, size_t total_access, double tau,
                             double w_time, double w_mem) {
  if (total == 0 || child_counts.empty()) {
    return LeafCost(total, tau, w_time, w_mem);
  }
  const bool workload_aware =
      total_access > 0 && access_counts.size() == child_counts.size();
  double time = kInnerHopTimeCost;
  double mem = kInnerChildMemCost * static_cast<double>(child_counts.size()) /
               static_cast<double>(total);
  for (size_t i = 0; i < child_counts.size(); ++i) {
    const size_t c = child_counts[i];
    if (c == 0) continue;
    const double key_share =
        static_cast<double>(c) / static_cast<double>(total);
    const double time_share =
        workload_aware ? static_cast<double>(access_counts[i]) /
                             static_cast<double>(total_access)
                       : key_share;
    time += time_share * EbhLeafTimeCost(c, tau);
    mem += key_share * EbhLeafMemCost(c, tau);
  }
  return w_time * time + w_mem * mem;
}

}  // namespace chameleon
