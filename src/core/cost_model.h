#ifndef CHAMELEON_CORE_COST_MODEL_H_
#define CHAMELEON_CORE_COST_MODEL_H_

#include <cstddef>
#include <span>

#include "src/util/common.h"

namespace chameleon {

/// Analytic cost estimates for candidate index shapes, shared by the
/// TSMDP reward function and DARE's fitness (Sec. IV-B2 "Reward
/// function": r = -w_t * R_t - w_m * R_m, where R_t is the cost of
/// traversing the tree plus secondary searches within leaf nodes and R_m
/// the memory of the nodes).
///
/// Units are abstract but consistent: time costs are "expected probe
/// steps per lookup", memory costs are "slots per key".

/// Expected secondary-search cost inside an EBH leaf holding `n` keys at
/// collision probability `tau`: one hash probe plus an expected scan
/// that grows slowly (log) with occupancy, because the conflict degree
/// of a hash table at fixed load grows ~ log n / log log n.
double EbhLeafTimeCost(size_t n, double tau);

/// Memory (slots/key, incl. fixed node overhead amortization) of an EBH
/// leaf sized per Theorem 1.
double EbhLeafMemCost(size_t n, double tau);

/// Cost of one inner-node hop (Eq. 1 evaluation + pointer chase). Set
/// below one probe step: an inner hop is a single predictable pointer
/// chase, while leaf scans touch cd slots.
inline constexpr double kInnerHopTimeCost = 0.5;

/// Amortized per-child memory of an inner node, in slot units.
inline constexpr double kInnerChildMemCost = 0.375;  // 3 words / 8-byte slot

/// Fixed per-leaf overhead in slot units: the EbhLeaf object, its three
/// array headers, allocator slack, and the owning SubNode/pointer. This
/// is what makes very small leaves unattractive to the optimizer.
inline constexpr double kLeafFixedOverheadSlots = 48.0;

/// Memory of one h-level unit slot (Unit struct + interval lock + the
/// minimum-capacity empty EBH leaf), charged per *child* at the unit
/// level of the frame — this is what stops DARE from over-fanning the
/// root into mostly-empty units.
inline constexpr double kUnitChildMemSlots = 24.0;

/// Extra per-populated-unit overhead (retraining counters, subtree
/// bookkeeping) beyond kUnitChildMemSlots.
inline constexpr double kUnitExtraMemSlots = 232.0;

/// One-step-lookahead cost of giving a node with `child_counts[i]` keys
/// per child the corresponding fanout, treating every child as a leaf:
/// returns {time, memory} combined as w_t * R_t + w_m * R_m (lower is
/// better). `total` is the node's key count.
double PartitionCost(std::span<const size_t> child_counts, size_t total,
                     double tau, double w_time, double w_mem);

/// Leaf (fanout = 1) cost for the same node: w_t * R_t + w_m * R_m.
double LeafCost(size_t total, double tau, double w_time, double w_mem);

/// Workload-aware PartitionCost (the paper's Sec. IV-B "other factors
/// such as the query distribution can be added to the reward function"):
/// the time term weights each child by its share of *query traffic*
/// (`access_counts`, same arity as `child_counts`) instead of its share
/// of keys, so hot regions are optimized harder. `total_access` may be 0,
/// in which case this degrades to PartitionCost.
double PartitionCostWeighted(std::span<const size_t> child_counts,
                             std::span<const size_t> access_counts,
                             size_t total, size_t total_access, double tau,
                             double w_time, double w_mem);

/// A cost kept as its two components.
struct TimeMemCost {
  double time = 0.0;
  double mem = 0.0;
};

/// Cost of an h-level node under the assumption that TSMDP will refine
/// it optimally (used by DARE in full-Chameleon mode, Sec. IV-C: DARE
/// builds the upper levels coarsely, TSMDP fine-tunes below): the min
/// over "stay a leaf" and one uniform split at every power-of-two
/// fanout up to 2^10, taken for time and for memory separately (the
/// weights that combine them are applied downstream). One pass over the
/// fanouts yields both.
TimeMemCost RefinedNodeCost(size_t total, double tau);

}  // namespace chameleon

#endif  // CHAMELEON_CORE_COST_MODEL_H_
