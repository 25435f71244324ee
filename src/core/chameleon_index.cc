#include "src/core/chameleon_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"
#include "src/util/thread_pool.h"

namespace chameleon {
namespace {

/// Slope of Eq. 1: f / (uk - lk). Cached in nodes; build-time
/// partitioning and query-time descent must use the *same* expression so
/// boundary keys can never route differently.
double Eq1Slope(Key lk, Key uk, size_t fanout) {
  const double width = static_cast<double>(uk) - static_cast<double>(lk);
  return width > 0.0 ? static_cast<double>(fanout) / width : 0.0;
}

/// Eq. 1: ID(k) = slope * (k - lk), clamped into [0, f).
size_t Eq1ChildIndex(Key lk, Key uk, double slope, size_t fanout, Key key) {
  if (fanout <= 1) return 0;
  if (key <= lk) return 0;
  if (key >= uk) return fanout - 1;
  const size_t idx = static_cast<size_t>(
      slope * (static_cast<double>(key) - static_cast<double>(lk)));
  return idx >= fanout ? fanout - 1 : idx;
}

size_t LinearChildIndex(Key lk, Key uk, size_t fanout, Key key) {
  return Eq1ChildIndex(lk, uk, Eq1Slope(lk, uk, fanout), fanout, key);
}

Key ChildLowerBound(Key lk, Key uk, size_t fanout, size_t idx) {
  if (idx == 0) return lk;
  const double width =
      (static_cast<double>(uk) - static_cast<double>(lk)) /
      static_cast<double>(fanout);
  return lk + static_cast<Key>(width * static_cast<double>(idx));
}

/// Cuts sorted `data` into the `fanout` children of [lk, uk) by the
/// exact query-time child function (Eq. 1), so build and lookup can
/// never disagree about a boundary key. Calls
/// `child(c, child_lo, child_hi, child_data)` for each child in order.
template <typename Fn>
void PartitionEq1(std::span<const KeyValue> data, Key lk, Key uk,
                  size_t fanout, Fn&& child) {
  size_t begin = 0;
  for (size_t c = 0; c < fanout; ++c) {
    const Key child_lo = ChildLowerBound(lk, uk, fanout, c);
    const Key child_hi =
        c + 1 == fanout ? uk : ChildLowerBound(lk, uk, fanout, c + 1);
    size_t end = begin;
    if (c + 1 == fanout) {
      end = data.size();
    } else {
      while (end < data.size() &&
             LinearChildIndex(lk, uk, fanout, data[end].key) == c) {
        ++end;
      }
    }
    child(c, child_lo, child_hi, data.subspan(begin, end - begin));
    begin = end;
  }
}

std::vector<Key> KeysOf(std::span<const KeyValue> data) {
  std::vector<Key> keys;
  keys.reserve(data.size());
  for (const KeyValue& kv : data) keys.push_back(kv.key);
  return keys;
}

}  // namespace

size_t ChameleonIndex::SubNode::ChildIndex(Key key) const {
  return Eq1ChildIndex(lk, uk, slope, children.size(), key);
}

size_t ChameleonIndex::FrameNode::ChildIndex(Key key) const {
  return Eq1ChildIndex(lk, uk, slope, fanout(), key);
}

template <typename Node>
inline Node* ChameleonIndex::Descend(Node* node, Key key) {
  while (!node->is_leaf()) {
    node = &node->children[node->ChildIndex(key)];
  }
  return node;
}

ChameleonIndex::ChameleonIndex() : ChameleonIndex(ChameleonConfig{}) {}

ChameleonIndex::ChameleonIndex(ChameleonConfig config)
    : config_(std::move(config)) {
  TsmdpConfig tc = config_.tsmdp;
  tc.tau = config_.tau;
  tc.w_time = config_.w_time;
  tc.w_mem = config_.w_mem;
  tc.seed = config_.seed ^ 0x75C3;
  tsmdp_ = std::make_unique<TsmdpAgent>(tc);

  DareConfig dc = config_.dare;
  dc.tau = config_.tau;
  dc.w_time = config_.w_time;
  dc.w_mem = config_.w_mem;
  dc.seed = config_.seed ^ 0x11D4;
  dc.target_leaf_keys = config_.target_leaf_keys;
  dc.assume_refinement = (config_.mode == ChameleonMode::kFull);
  dare_ = std::make_unique<DareAgent>(dc);

  BulkLoad({});
}

ChameleonIndex::~ChameleonIndex() { StopRetrainer(); }

std::string_view ChameleonIndex::Name() const {
  switch (config_.mode) {
    case ChameleonMode::kEbhOnly: return "ChaB";
    case ChameleonMode::kDare: return "ChaDA";
    case ChameleonMode::kFull: return "Chameleon";
  }
  return "Chameleon";
}

// --- Construction -----------------------------------------------------------

size_t ChameleonIndex::FrameFanoutFor(const FrameNode& node, int level,
                                      size_t n) const {
  constexpr size_t kMaxRoot = size_t{1} << 20;
  constexpr size_t kMaxInner = size_t{1} << 10;
  if (config_.mode == ChameleonMode::kEbhOnly) {
    // Greedy fixed-policy frame (no RL): size the unit count so units
    // hold ~16x the target leaf population, spread over h-1 levels.
    const size_t units_needed = std::max<size_t>(
        1, n / std::max<size_t>(1, config_.target_leaf_keys * 16));
    if (h_ == 2 || level == h_ - 1) {
      // Last frame level: whatever remains of the per-branch unit share.
      if (level == 1) return std::min(units_needed, kMaxRoot);
      const size_t per_branch = std::max<size_t>(
          1, n / std::max<size_t>(1, config_.target_leaf_keys * 16));
      return std::min(per_branch, kMaxInner);
    }
    // Upper level of an h=3 frame.
    const size_t root = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(units_needed))));
    return std::min(std::max<size_t>(1, root), kMaxRoot);
  }
  // DARE-driven frame.
  if (level == 1) return std::min(dare_params_.root_fanout, kMaxRoot);
  return DareAgent::InterpolatedFanout(dare_params_,
                                       static_cast<size_t>(level - 2),
                                       node.lk, node.uk, mk_, Mk_, kMaxInner);
}

void ChameleonIndex::BuildSubtreeInto(SubNode* node,
                                      std::span<const KeyValue> data, Key lk,
                                      Key uk, int depth,
                                      std::vector<DeferredLeaf>* deferred) {
  node->lk = lk;
  node->uk = uk;

  size_t fanout = 1;
  switch (config_.mode) {
    case ChameleonMode::kDare:
      fanout = 1;  // ChaDA: h-level nodes are plain EBH leaves
      break;
    case ChameleonMode::kEbhOnly: {
      // ChaB's greedy strategy: one fixed 16-way split below the unit
      // level, blind to the local distribution — dense units end up with
      // overloaded leaves (the higher MaxError Table V shows for greedy
      // construction), sparse units with near-empty ones.
      if (depth == 0 && data.size() > config_.target_leaf_keys * 4 &&
          uk - lk >= 2) {
        fanout = 16;
      }
      break;
    }
    case ChameleonMode::kFull: {
      const std::vector<Key> keys = KeysOf(data);
      fanout = tsmdp_->ChooseFanout(keys, lk, uk, depth);
      break;
    }
  }

  if (fanout <= 1 || uk - lk < 2) {
    node->leaf.emplace(lk, uk, data.size(), config_.tau, config_.alpha);
    node->leaf->set_adaptive_alpha(config_.adaptive_alpha);
    if (deferred != nullptr) {
      // The leaf lives inline in *node, which is filled in place and
      // never moves before the caller drains the deferred list.
      deferred->push_back({&*node->leaf, data});
    } else {
      node->leaf->Build(data);
    }
    return;
  }

  node->children.resize(fanout);
  node->slope = Eq1Slope(lk, uk, fanout);
  PartitionEq1(data, lk, uk, fanout,
               [&](size_t c, Key child_lo, Key child_hi,
                   std::span<const KeyValue> child_data) {
                 BuildSubtreeInto(&node->children[c], child_data, child_lo,
                                  child_hi, depth + 1, deferred);
               });
}

void ChameleonIndex::BuildFrameNode(FrameNode* node,
                                    std::span<const KeyValue> data, int level,
                                    size_t fanout_hint,
                                    std::vector<UnitBuildTask>* unit_tasks) {
  const size_t fanout = std::max<size_t>(1, fanout_hint);
  const bool units_level = (level == h_ - 1);

  node->slope = Eq1Slope(node->lk, node->uk, fanout);
  if (units_level) {
    node->unit_begin = units_.size();
    node->unit_fanout = fanout;
  } else {
    node->children.resize(fanout);
  }

  const auto build_child = [&](size_t c, Key child_lo, Key child_hi,
                               std::span<const KeyValue> child_data) {
    if (units_level) {
      auto unit = std::make_unique<Unit>();
      unit->lk = child_lo;
      unit->uk = child_hi;
      unit->built_keys = child_data.size();
      // Subtree builds are the expensive part of construction (TSMDP
      // fanout decisions + EBH slot placement); record them as tasks so
      // BuildFrame can fan them out on the thread pool. Unit pointers
      // are stable (units_ stores unique_ptrs).
      unit_tasks->push_back({unit.get(), child_data});
      units_.push_back(std::move(unit));
    } else {
      FrameNode& child = node->children[c];
      child.lk = child_lo;
      child.uk = child_hi;
      const size_t child_fanout =
          FrameFanoutFor(child, level + 1, child_data.size());
      BuildFrameNode(&child, child_data, level + 1, child_fanout, unit_tasks);
    }
  };
  PartitionEq1(data, node->lk, node->uk, fanout, build_child);
}

void ChameleonIndex::BuildFrame(std::span<const KeyValue> data) {
  // Exclude the sampler's HeatmapSnapshot while units_ is replaced
  // (it try-locks and reports empty for the duration).
  std::lock_guard<std::mutex> heat_guard(heatmap_mu_);
  units_.clear();
  const size_t n = data.size();
  mk_ = n > 0 ? data.front().key : 0;
  Mk_ = n > 0 ? data.back().key + 1 : 1;

  // h = ceil(log_{2^10} |D|), clamped to >= 2 (Sec. III-B).
  h_ = n > 1
           ? std::max(2, static_cast<int>(std::ceil(
                             std::log2(static_cast<double>(n)) / 10.0)))
           : 2;

  if (config_.mode != ChameleonMode::kEbhOnly && n > 0) {
    const std::vector<Key> keys = KeysOf(data);
    dare_params_ = dare_->ChooseParams(keys, h_);
  } else {
    dare_params_ = DareParams{};
  }

  frame_root_ = FrameNode{};
  frame_root_.lk = mk_;
  frame_root_.uk = Mk_;
  const size_t root_fanout = FrameFanoutFor(frame_root_, 1, n);

  // The frame walk is serial (cheap: it only partitions spans and sizes
  // fanouts) and records one build task per h-level unit; the expensive
  // per-unit subtree builds then fan out on the global pool. Each task
  // touches only its own unit, and every fanout decision inside a
  // subtree (TSMDP cost model / frozen DQN inference) is a pure function
  // of the unit's data — so the built structure is identical for any
  // CHAMELEON_THREADS value.
  std::vector<UnitBuildTask> unit_tasks;
  BuildFrameNode(&frame_root_, data, 1, root_fanout, &unit_tasks);
  GlobalPool().ParallelFor(
      0, unit_tasks.size(), /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          UnitBuildTask& task = unit_tasks[i];
          BuildSubtreeInto(&task.unit->root, task.data, task.unit->lk,
                           task.unit->uk, 0, /*deferred=*/nullptr);
        }
      });
}

void ChameleonIndex::SetQuerySample(std::vector<Key> query_keys) {
  std::sort(query_keys.begin(), query_keys.end());
  tsmdp_->SetAccessSample(std::move(query_keys));
}

void ChameleonIndex::BulkLoad(std::span<const KeyValue> data) {
  PeriodicWorker::PauseGuard pause(retrainer_);
  size_.store(data.size(), std::memory_order_relaxed);
  built_size_ = data.size();
  updates_since_build_.store(0, std::memory_order_relaxed);
  total_retrains_.store(0);
  total_full_rebuilds_ = 0;
  BuildFrame(data);
}

void ChameleonIndex::MaybeFullReconstruct() {
  if (config_.full_rebuild_threshold_pct == 0) return;
  // Incremental background retraining supersedes wholesale rebuilds; a
  // frame swap is also not safe under concurrent readers or writers.
  if (locks_enabled_.load(std::memory_order_relaxed)) return;
  if (updates_since_build_.load(std::memory_order_relaxed) * 100 <=
      std::max<size_t>(1, built_size_) * config_.full_rebuild_threshold_pct) {
    return;
  }
  std::vector<KeyValue> all;
  all.reserve(size_.load(std::memory_order_relaxed));
  RangeScan(kMinKey, kMaxKey - 1, &all);
  BuildFrame(all);  // re-invokes DARE (and TSMDP in full mode)
  built_size_ = all.size();
  updates_since_build_.store(0, std::memory_order_relaxed);
  ++total_full_rebuilds_;
  CHAMELEON_STAT_INC(kFullRebuilds);
  CHAMELEON_TRACE(kFullRebuild, built_size_, 0);
}

// --- Point operations -------------------------------------------------------

ChameleonIndex::Unit* ChameleonIndex::FindUnit(Key key) const {
  const FrameNode* node = &frame_root_;
  while (!node->children.empty()) {
    node = &node->children[node->ChildIndex(key)];
  }
  const size_t idx = node->ChildIndex(key);
  return units_[node->unit_begin + idx].get();
}

bool ChameleonIndex::Lookup(Key key, Value* value) const {
  CHAMELEON_STAT_INC(kLookups);
  Unit* unit = FindUnit(key);
  CHAMELEON_HEAT_HIT(unit->heat_reads);
  const bool locked = locks_enabled_.load(std::memory_order_acquire);
  if (locked) unit->lock.LockShared();
  const bool found = Descend(&unit->root, key)->leaf->Lookup(key, value);
  if (locked) unit->lock.UnlockShared();
  return found;
}

void ChameleonIndex::LookupBatch(std::span<const Key> keys, Value* values,
                                 bool* found) const {
  CHAMELEON_STAT_ADD(kLookups, keys.size());
  const bool locked = locks_enabled_.load(std::memory_order_acquire);
  // Pipeline in groups of kGroup: stage 1 walks each key down to its
  // leaf (inner-node lines are shared across the batch and stay hot),
  // computes the EBH home slot and prefetches its key/value lines; stage
  // 2 runs the probes once the loads have had a group's worth of work to
  // complete. Stage 1 takes the Query-Lock that Lookup would take and
  // stage 2 releases it — a holder never blocks, and the retrainer's
  // TryLockExclusive simply defers, so ordering locks this way cannot
  // deadlock.
  constexpr size_t kGroup = 8;
  struct Staged {
    Unit* unit;
    const EbhLeaf* leaf;
    size_t base;
  };
  Staged staged[kGroup];
  for (size_t g = 0; g < keys.size(); g += kGroup) {
    const size_t n = std::min(kGroup, keys.size() - g);
    for (size_t i = 0; i < n; ++i) {
      const Key key = keys[g + i];
      Unit* unit = FindUnit(key);
      CHAMELEON_HEAT_HIT(unit->heat_reads);
      if (locked) unit->lock.LockShared();
      const EbhLeaf* leaf = &*Descend(&unit->root, key)->leaf;
      const size_t base = leaf->HashSlot(key);
      // Prefetch the whole clamped probe window, not just the home
      // slot: stage 2's SIMD window probe touches up to three key
      // cache lines when cd spans more than a line of slots.
      leaf->PrefetchProbeWindow(base);
      staged[i] = {unit, leaf, base};
    }
    for (size_t i = 0; i < n; ++i) {
      found[g + i] =
          staged[i].leaf->LookupAt(staged[i].base, keys[g + i], values + g + i);
      if (locked) staged[i].unit->lock.UnlockShared();
    }
  }
}

inline bool ChameleonIndex::Apply(SubNode* root, const PendingOp& op) {
  EbhLeaf& leaf = *Descend(root, op.key)->leaf;
  return op.is_insert ? leaf.Insert(op.key, op.value) : leaf.Erase(op.key);
}

bool ChameleonIndex::Write(Unit* unit, const PendingOp& op) {
  const bool locked = locks_enabled_.load(std::memory_order_acquire);
  if (locked) {
    // Attribute time spent blocked on the retrainer's exclusive hold of
    // this interval or on a concurrent reader/writer of the same unit
    // (usually ~one CAS uncontended).
    CHAMELEON_PHASE_SPAN(kRetrainBlock);
    const uint64_t spins = unit->lock.LockWrite();
    if (spins > 0) {
      unit->heat_write_waits.fetch_add(spins, std::memory_order_relaxed);
    }
  }
  const bool changed = Apply(&unit->root, op);
  if (changed && locked && unit->rebuilding) unit->pending_log.push_back(op);
  if (locked) unit->lock.UnlockWrite();
  if (!changed) return false;
  unit->inserts_since_build.fetch_add(1, std::memory_order_relaxed);
  if (op.is_insert) {
    size_.fetch_add(1, std::memory_order_relaxed);
  } else {
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
  updates_since_build_.fetch_add(1, std::memory_order_relaxed);
  MaybeFullReconstruct();
  return true;
}

bool ChameleonIndex::Insert(Key key, Value value) {
  CHAMELEON_STAT_INC(kInserts);
  Unit* unit = FindUnit(key);
  CHAMELEON_HEAT_HIT(unit->heat_writes);
  return Write(unit, {true, key, value});
}

bool ChameleonIndex::Erase(Key key) {
  CHAMELEON_STAT_INC(kErases);
  Unit* unit = FindUnit(key);
  CHAMELEON_HEAT_HIT(unit->heat_writes);
  return Write(unit, {false, key, 0});
}

// --- Scans ------------------------------------------------------------------

size_t ChameleonIndex::RangeScan(Key lo, Key hi,
                                 std::vector<KeyValue>* out) const {
  CHAMELEON_STAT_INC(kRangeScans);
  // One in-order walk: frame nodes down to the units covering [lo, hi],
  // then each unit's subtree under its Query-Lock. Children are visited
  // left to right and every leaf appends its hits sorted, so `out`
  // comes out in key order and a scan allocates nothing of its own.
  struct Scanner {
    Key lo, hi;
    const std::vector<std::unique_ptr<Unit>>* units;
    bool locked;
    std::vector<KeyValue>* out;
    size_t count = 0;

    void Frame(const FrameNode* node) {
      const size_t first = node->ChildIndex(lo);
      const size_t last = node->ChildIndex(hi);
      for (size_t i = first; i <= last; ++i) {
        if (node->children.empty()) {
          ScanUnit((*units)[node->unit_begin + i].get());
        } else {
          Frame(&node->children[i]);
        }
      }
    }
    void ScanUnit(Unit* unit) {
      CHAMELEON_HEAT_HIT(unit->heat_reads);
      if (locked) unit->lock.LockShared();
      Sub(&unit->root);
      if (locked) unit->lock.UnlockShared();
    }
    void Sub(const SubNode* node) {
      if (node->is_leaf()) {
        count += node->leaf->RangeScan(lo, hi, out);
        return;
      }
      const size_t first = node->ChildIndex(lo);
      const size_t last = node->ChildIndex(hi);
      for (size_t i = first; i <= last; ++i) Sub(&node->children[i]);
    }
  } scanner{lo, hi, &units_, locks_enabled_.load(std::memory_order_acquire),
            out};
  scanner.Frame(&frame_root_);
  return scanner.count;
}

obs::Heatmap ChameleonIndex::SnapshotUnits(
    std::pair<uint64_t, uint64_t> (*counts)(const Unit& unit)) const {
  // try_to_lock: a full (re)build or LoadFrom holds heatmap_mu_ while
  // it replaces units_; report empty for that tick instead of stalling
  // the sampler (or racing the vector).
  std::unique_lock<std::mutex> lock(heatmap_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return {};
  obs::Heatmap out;
  out.reserve(units_.size());
  for (const auto& unit : units_) {
    const auto [reads, writes] = counts(*unit);
    out.push_back({unit->lk, unit->uk, reads, writes});
  }
  return out;
}

obs::Heatmap ChameleonIndex::HeatmapSnapshot() const {
  return SnapshotUnits([](const Unit& unit) {
    return std::pair{unit.heat_reads.load(std::memory_order_relaxed),
                     unit.heat_writes.load(std::memory_order_relaxed)};
  });
}

bool ChameleonIndex::EnableConcurrentWrites() {
  // Sticky: once on, every Insert/Erase takes the unit Writer-Lock, and
  // locks stay enabled even after the retrainer stops. seq_cst mirrors
  // StartRetrainer — callers flip the mode before concurrent writers
  // start, so in-flight unlocked operations cannot exist.
  concurrent_writes_.store(true, std::memory_order_seq_cst);
  locks_enabled_.store(true, std::memory_order_seq_cst);
  return true;
}

obs::Heatmap ChameleonIndex::WriteContentionSnapshot() const {
  return SnapshotUnits([](const Unit& unit) {
    return std::pair{uint64_t{0},
                     unit.heat_write_waits.load(std::memory_order_relaxed)};
  });
}

// --- Retraining -------------------------------------------------------------

size_t ChameleonIndex::RetrainOnce() {
  // Collect drifted units, most-drifted first, and rebuild at most
  // max_retrains_per_pass of them this pass (the rest wait for the next
  // period, bounding Retraining-Lock pressure on foreground writes).
  std::vector<std::pair<double, Unit*>> candidates;
  for (auto& unit_ptr : units_) {
    Unit& unit = *unit_ptr;
    const size_t updates =
        unit.inserts_since_build.load(std::memory_order_relaxed);
    const size_t threshold = std::max<size_t>(
        16, unit.built_keys * config_.retrain_threshold_pct / 100);
    if (updates <= threshold) continue;
    const double drift = static_cast<double>(updates) /
                         static_cast<double>(std::max<size_t>(
                             1, unit.built_keys));
    candidates.push_back({drift, &unit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (candidates.size() > config_.max_retrains_per_pass) {
    candidates.resize(config_.max_retrains_per_pass);
  }

  size_t rebuilt = 0;
  for (auto& [drift, unit_ptr2] : candidates) {
    Unit& unit = *unit_ptr2;
    // Phase 1 (brief Retraining-Lock): snapshot the unit's records and
    // open the pending-op log. Denied while a query holds the interval;
    // the retrainer simply moves on and retries on the next pass.
    if (!unit.lock.TryLockExclusive()) {
      CHAMELEON_STAT_INC(kRetrainLockDenied);
      CHAMELEON_TRACE(kRetrainDenied, unit.lk, 0);
      continue;
    }
    std::vector<KeyValue> pairs;
    VisitPreOrder(std::as_const(unit.root), 0,
                  [&pairs](const SubNode& node, int) {
                    if (node.is_leaf()) node.leaf->CollectUnsorted(&pairs);
                  });
    unit.rebuilding = true;
    unit.pending_log.clear();
    unit.lock.UnlockExclusive();

    // Phase 2 (no locks): build the replacement subtree aside while the
    // old one keeps serving queries and updates. The structural walk is
    // serial; the EbhLeaf::Build calls — the bulk of the work — are
    // deferred and fanned out on the pool. No Interval Lock is held
    // during any of this, so the non-blocking property is unchanged.
    std::sort(pairs.begin(), pairs.end());
    SubNode fresh;
    std::vector<DeferredLeaf> deferred;
    BuildSubtreeInto(&fresh, pairs, unit.lk, unit.uk, 0, &deferred);
    GlobalPool().ParallelFor(0, deferred.size(), /*grain=*/1,
                             [&](size_t chunk_begin, size_t chunk_end) {
                               for (size_t i = chunk_begin; i < chunk_end;
                                    ++i) {
                                 deferred[i].leaf->Build(deferred[i].data);
                               }
                             });

    // Phase 3 (brief Retraining-Lock): replay updates that raced with
    // the rebuild through the foreground writes' Apply, then swap.
    unit.lock.LockExclusive();
    size_t net = pairs.size();
    CHAMELEON_STAT_ADD(kRetrainReplayedOps, unit.pending_log.size());
    for (const PendingOp& op : unit.pending_log) {
      if (Apply(&fresh, op)) net = op.is_insert ? net + 1 : net - 1;
    }
    unit.root = std::move(fresh);
    unit.built_keys = net;
    unit.inserts_since_build.store(0, std::memory_order_relaxed);
    unit.rebuilding = false;
    unit.pending_log.clear();
    unit.lock.UnlockExclusive();
    ++rebuilt;
    total_retrains_.fetch_add(1, std::memory_order_relaxed);
    CHAMELEON_STAT_INC(kUnitsRebuilt);
    CHAMELEON_TRACE(kUnitRebuilt, unit.lk, net);
  }
  CHAMELEON_STAT_INC(kRetrainPasses);
  CHAMELEON_TRACE(kRetrainPass, candidates.size(), rebuilt);
  return rebuilt;
}

void ChameleonIndex::StartRetrainer(std::chrono::milliseconds interval) {
  StopRetrainer();
  // Queries begin taking Query-Locks from here on; the retrainer's first
  // pass happens one full interval later, far beyond the lifetime of any
  // unlocked in-flight operation.
  locks_enabled_.store(true, std::memory_order_seq_cst);
  retrainer_.Start(interval, [this] { RetrainOnce(); });
}

void ChameleonIndex::StopRetrainer() {
  retrainer_.Stop();
  // Locks stay on when multi-writer mode was enabled; otherwise the
  // single-threaded lock-free fast path returns.
  locks_enabled_.store(concurrent_writes_.load(std::memory_order_seq_cst),
                       std::memory_order_seq_cst);
}

// --- Introspection ----------------------------------------------------------

size_t ChameleonIndex::total_shifts() const {
  PeriodicWorker::PauseGuard pause(retrainer_);
  size_t shifts = 0;
  for (const auto& unit : units_) {
    VisitPreOrder(std::as_const(unit->root), 0,
                  [&shifts](const SubNode& node, int) {
                    if (node.is_leaf()) shifts += node.leaf->total_shifts();
                  });
  }
  return shifts;
}

size_t ChameleonIndex::SizeBytes() const {
  PeriodicWorker::PauseGuard pause(retrainer_);
  size_t frame_bytes = 0;
  VisitPreOrder(frame_root_, 0, [&frame_bytes](const FrameNode& node, int) {
    frame_bytes +=
        sizeof(FrameNode) + node.children.capacity() * sizeof(FrameNode);
  });
  size_t unit_bytes = 0;
  for (const auto& unit : units_) {
    unit_bytes += sizeof(Unit);
    VisitPreOrder(std::as_const(unit->root), 0,
                  [&unit_bytes](const SubNode& node, int) {
                    unit_bytes +=
                        node.children.capacity() * sizeof(SubNode);
                    if (node.is_leaf()) {
                      unit_bytes += node.leaf->SizeBytes() - sizeof(EbhLeaf);
                    }
                  });
  }
  return sizeof(ChameleonIndex) + frame_bytes + unit_bytes +
         units_.capacity() * sizeof(void*);
}

IndexStats ChameleonIndex::Stats() const {
  PeriodicWorker::PauseGuard pause(retrainer_);
  IndexStatsTally tally;
  VisitPreOrder(frame_root_, 0,
                [&tally](const FrameNode&, int) { tally.AddNodes(); });
  // Unit roots sit at level h; their subtrees extend below.
  for (const auto& unit : units_) {
    VisitPreOrder(std::as_const(unit->root), h_,
                  [&tally](const SubNode& node, int depth) {
                    tally.AddNodes();
                    if (!node.is_leaf()) return;
                    double err_sum = 0.0;
                    double err_max = 0.0;
                    node.leaf->AccumulateError(&err_sum, &err_max);
                    tally.AddLeaf(depth, node.leaf->num_keys(), err_sum,
                                  err_max);
                  });
  }
  return tally.Finish();
}

}  // namespace chameleon
