// Differential conformance tests for the SIMD probe kernels (DESIGN.md
// §12): every tier available on this host must be bit-identical to the
// scalar oracle — kernel by kernel on adversarial slot arrays, then end
// to end through EbhLeaf and ChameleonIndex under the same operation
// sequences. The scalar tier is the pre-SIMD code verbatim, so agreeing
// with it means agreeing with the repo's entire historical behavior.

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/chameleon_index.h"
#include "src/core/ebh_leaf.h"
#include "src/data/dataset.h"
#include "src/simd/kernels_impl.h"
#include "src/simd/probe_kernel.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace simd {
// Names the tier in gtest's parameter output.
void PrintTo(SimdLevel level, std::ostream* os) { *os << SimdLevelName(level); }
}  // namespace simd
namespace {

using simd::kNotFound;
using simd::ProbeKernels;
using simd::SimdLevel;

std::string LevelName(SimdLevel level) {
  return std::string(simd::SimdLevelName(level));
}

/// Restores the dispatched tier on scope exit; tests that override the
/// active level must not leak the override into other tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : saved_(simd::ActiveSimdLevel()) {
    EXPECT_TRUE(simd::SetActiveSimdLevel(level)) << LevelName(level);
  }
  ~ScopedSimdLevel() { simd::SetActiveSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

/// Vector tiers on this host (available minus the scalar oracle itself).
std::vector<SimdLevel> VectorLevels() {
  std::vector<SimdLevel> levels = simd::AvailableSimdLevels();
  std::erase(levels, SimdLevel::kScalar);
  return levels;
}

/// A slot array shaped like a built EBH leaf: unique keys at the given
/// load factor, empties holding the sentinel. Keys are multiples of 3
/// so misses can probe +1/+2 offsets that are provably absent.
std::vector<Key> MakeSlots(size_t cap, double load, std::mt19937_64& rng) {
  std::vector<Key> slots(cap, kEbhEmptySlot);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (size_t i = 0; i < cap; ++i) {
    if (coin(rng) < load) slots[i] = static_cast<Key>(i) * 3;
  }
  return slots;
}

/// MakeSlots with the slots shuffled, so hits arrive in random key
/// order as they do in a real EBH leaf (MakeSlots' keys ascend with the
/// slot index, which would leave the sort nothing to do).
std::vector<Key> MakeShuffledSlots(size_t cap, double load,
                                   std::mt19937_64& rng) {
  std::vector<Key> slots = MakeSlots(cap, load, rng);
  std::shuffle(slots.begin(), slots.end(), rng);
  return slots;
}

std::vector<Value> ValuesFor(const std::vector<Key>& slots) {
  std::vector<Value> values(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] != kEbhEmptySlot) values[i] = slots[i] * 7 + 1;
  }
  return values;
}

TEST(SimdKernelTest, AvailableLevelsStartWithScalar) {
  const std::vector<SimdLevel> levels = simd::AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  // Every advertised level must resolve to a non-null kernel table whose
  // self-reported identity matches.
  for (SimdLevel level : levels) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    ASSERT_NE(k, nullptr) << LevelName(level);
    EXPECT_EQ(k->level, level);
    EXPECT_EQ(k->name, simd::SimdLevelName(level));
  }
}

TEST(SimdKernelTest, SetActiveSimdLevelRejectsUnavailable) {
#if !defined(__aarch64__)
  // NEON can never be available on an x86 build and vice versa — the
  // enum value exists but KernelsForLevel returns null.
  EXPECT_EQ(simd::KernelsForLevel(SimdLevel::kNeon), nullptr);
  const SimdLevel before = simd::ActiveSimdLevel();
  EXPECT_FALSE(simd::SetActiveSimdLevel(SimdLevel::kNeon));
  EXPECT_EQ(simd::ActiveSimdLevel(), before);
#endif
}

// --- find_in_window ---------------------------------------------------------

TEST(SimdKernelTest, FindInWindowMatchesScalarOnRandomWindows) {
  std::mt19937_64 rng(7);
  for (SimdLevel level : VectorLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const size_t cap : {5u, 64u, 257u, 4096u}) {
      const std::vector<Key> slots = MakeSlots(cap, 0.8, rng);
      for (int trial = 0; trial < 2000; ++trial) {
        const size_t a = rng() % cap;
        const size_t b = rng() % cap;
        const size_t lo = std::min(a, b);
        const size_t hi = std::max(a, b);
        // Mix hits (a key actually inside the window), near-misses
        // (key + 1, never stored), and far misses.
        Key key = slots[lo + rng() % (hi - lo + 1)];
        const int mode = trial % 3;
        if (mode == 1) key = key == kEbhEmptySlot ? 1 : key + 1;
        if (mode == 2) key = static_cast<Key>(rng() * 3 + 2);
        const size_t expect =
            simd::detail::ScalarFindInWindow(slots.data(), lo, hi, key);
        EXPECT_EQ(k->find_in_window(slots.data(), lo, hi, key), expect)
            << LevelName(level) << " cap=" << cap << " [" << lo << "," << hi
            << "] key=" << key;
      }
    }
  }
}

TEST(SimdKernelTest, FindInWindowEdgeCases) {
  // Hand-built array: even slots occupied, odd slots empty (sentinel),
  // and windows of every width from 1 (cd == 0) up past all lane counts.
  constexpr size_t kCap = 40;
  std::vector<Key> slots(kCap, kEbhEmptySlot);
  for (size_t i = 0; i < kCap; i += 2) slots[i] = 100 + i;
  slots[kCap - 1] = 500;  // occupy the last slot so clamped hits land on it
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    // cd == 0: single-slot windows, hit and miss.
    EXPECT_EQ(k->find_in_window(slots.data(), 0, 0, 100), 0u)
        << LevelName(level);
    EXPECT_EQ(k->find_in_window(slots.data(), 0, 0, 999), kNotFound);
    // Window clamped at slot 0 / at capacity - 1.
    EXPECT_EQ(k->find_in_window(slots.data(), 0, 7, 106), 6u);
    EXPECT_EQ(k->find_in_window(slots.data(), kCap - 6, kCap - 1, 500),
              kCap - 1)
        << LevelName(level);
    // Sentinel-adjacent: the probe key sits right next to empty slots
    // and the sentinel value itself must never match a live probe.
    EXPECT_EQ(k->find_in_window(slots.data(), kCap - 4, kCap - 1, 136),
              kCap - 4);
    // Every window width across the whole array, absent key: kNotFound
    // at any width (exercises sub-lane-width and tail paths).
    for (size_t width = 1; width <= kCap; ++width) {
      EXPECT_EQ(k->find_in_window(slots.data(), 0, width - 1, 7), kNotFound)
          << LevelName(level) << " width=" << width;
      const size_t lo = kCap - width;
      EXPECT_EQ(k->find_in_window(slots.data(), lo, kCap - 1, 7), kNotFound)
          << LevelName(level) << " clamped width=" << width;
    }
  }
}

// --- find_nearest -----------------------------------------------------------

TEST(SimdKernelTest, FindNearestMatchesScalarOnRandomArrays) {
  std::mt19937_64 rng(11);
  for (SimdLevel level : VectorLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const double load : {0.2, 0.8, 0.97}) {
      for (const size_t cap : {3u, 17u, 64u, 1000u}) {
        const std::vector<Key> slots = MakeSlots(cap, load, rng);
        for (size_t base = 0; base < cap; ++base) {
          const size_t expect = simd::detail::ScalarFindNearest(
              slots.data(), cap, base, kEbhEmptySlot);
          EXPECT_EQ(k->find_nearest(slots.data(), cap, base, kEbhEmptySlot),
                    expect)
              << LevelName(level) << " cap=" << cap << " load=" << load
              << " base=" << base;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FindNearestTieBreaksUpAndHandlesFullArray) {
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    // Free slots equidistant at base +- 3: upper side must win, exactly
    // like the scalar alternating scan that tries up before down.
    std::vector<Key> slots(33, 1);  // all occupied by non-sentinel keys
    slots[10 - 3] = kEbhEmptySlot;
    slots[10 + 3] = kEbhEmptySlot;
    EXPECT_EQ(k->find_nearest(slots.data(), slots.size(), 10, kEbhEmptySlot),
              13u)
        << LevelName(level);
    // Nearer lower side beats farther upper side.
    slots[10 + 3] = 1;
    slots[10 + 5] = kEbhEmptySlot;
    EXPECT_EQ(k->find_nearest(slots.data(), slots.size(), 10, kEbhEmptySlot),
              7u)
        << LevelName(level);
    // Full array, no free slot anywhere: kNotFound from any base.
    std::vector<Key> full(19, 1);
    for (size_t base = 0; base < full.size(); ++base) {
      EXPECT_EQ(k->find_nearest(full.data(), full.size(), base, kEbhEmptySlot),
                kNotFound)
          << LevelName(level) << " base=" << base;
    }
    // Free slot at the extreme edges only.
    std::vector<Key> edges(21, 1);
    edges[0] = kEbhEmptySlot;
    EXPECT_EQ(k->find_nearest(edges.data(), edges.size(), 15, kEbhEmptySlot),
              0u);
    edges[0] = 1;
    edges[20] = kEbhEmptySlot;
    EXPECT_EQ(k->find_nearest(edges.data(), edges.size(), 4, kEbhEmptySlot),
              20u);
  }
}

// --- range_collect ----------------------------------------------------------

TEST(SimdKernelTest, RangeCollectMatchesScalar) {
  std::mt19937_64 rng(13);
  for (SimdLevel level : VectorLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const size_t cap : {3u, 64u, 1023u}) {
      const std::vector<Key> slots = MakeSlots(cap, 0.7, rng);
      const std::vector<Value> values = ValuesFor(slots);
      for (int trial = 0; trial < 200; ++trial) {
        Key a = rng() % (cap * 3 + 1);
        Key b = rng() % (cap * 3 + 1);
        if (a > b) std::swap(a, b);
        // hi == kMaxKey equals the sentinel: empty slots must still be
        // excluded (the explicit-sentinel parameter exists for this).
        if (trial % 5 == 0) b = kMaxKey;
        if (trial % 7 == 0) a = 0;
        std::vector<KeyValue> expect;
        simd::detail::ScalarRangeCollect(slots.data(), values.data(), cap, a,
                                         b, kEbhEmptySlot, &expect);
        std::vector<KeyValue> got;
        const size_t n =
            k->range_collect(slots.data(), values.data(), cap, a, b,
                             kEbhEmptySlot, &got);
        ASSERT_EQ(n, expect.size())
            << LevelName(level) << " cap=" << cap << " [" << a << "," << b
            << "]";
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i].key, expect[i].key);
          EXPECT_EQ(got[i].value, expect[i].value);
        }
      }
    }
  }
}

TEST(SimdKernelTest, RangeCollectUnsignedBoundaries) {
  // Keys straddling 2^63 catch signed-compare bugs in the biased-compare
  // tiers (AVX2 synthesizes unsigned order via an XOR-2^63 bias).
  const std::vector<Key> slots = {0,
                                  1,
                                  (Key{1} << 63) - 1,
                                  Key{1} << 63,
                                  (Key{1} << 63) + 1,
                                  kMaxKey - 1,
                                  kEbhEmptySlot,
                                  5};
  const std::vector<Value> values = {10, 11, 12, 13, 14, 15, 0, 16};
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
             {0, kMaxKey},
             {Key{1} << 63, kMaxKey},
             {0, (Key{1} << 63) - 1},
             {(Key{1} << 63) - 1, (Key{1} << 63) + 1},
             {kMaxKey, kMaxKey}}) {
      std::vector<KeyValue> expect;
      simd::detail::ScalarRangeCollect(slots.data(), values.data(),
                                       slots.size(), lo, hi, kEbhEmptySlot,
                                       &expect);
      std::vector<KeyValue> got;
      k->range_collect(slots.data(), values.data(), slots.size(), lo, hi,
                       kEbhEmptySlot, &got);
      ASSERT_EQ(got.size(), expect.size())
          << LevelName(level) << " [" << lo << "," << hi << "]";
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].key, expect[i].key) << LevelName(level);
      }
    }
  }
}

// --- range_collect_sorted ---------------------------------------------------

/// Runs `k`'s range_collect_sorted and the scalar oracle on the same
/// slots, each appending to a non-empty, unsorted `out`; both the
/// returned counts and the whole vectors must agree.
void ExpectSortedMatchesOracle(const ProbeKernels& k,
                               const std::vector<Key>& slots,
                               const std::vector<Value>& values, Key lo,
                               Key hi) {
  const std::vector<KeyValue> prefix = {{42, 43}, {7, 8}};
  std::vector<KeyValue> expect = prefix;
  const size_t expect_n = simd::detail::ScalarRangeCollectSorted(
      slots.data(), values.data(), slots.size(), lo, hi, kEbhEmptySlot,
      &expect);
  std::vector<KeyValue> got = prefix;
  const size_t n = k.range_collect_sorted(slots.data(), values.data(),
                                          slots.size(), lo, hi, kEbhEmptySlot,
                                          &got);
  ASSERT_EQ(n, expect_n) << k.name << " cap=" << slots.size() << " [" << lo
                         << "," << hi << "]";
  ASSERT_EQ(got, expect) << k.name << " cap=" << slots.size() << " [" << lo
                         << "," << hi << "]";
}

TEST(SimdKernelTest, RangeCollectSortedMatchesScalarOnRandomRanges) {
  std::mt19937_64 rng(21);
  for (SimdLevel level : VectorLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const size_t cap : {3u, 64u, 1023u}) {
      const std::vector<Key> slots = MakeShuffledSlots(cap, 0.7, rng);
      const std::vector<Value> values = ValuesFor(slots);
      for (int trial = 0; trial < 200; ++trial) {
        Key a = rng() % (cap * 3 + 1);
        Key b = rng() % (cap * 3 + 1);
        if (a > b) std::swap(a, b);
        if (trial % 5 == 0) b = kMaxKey;  // hi == the sentinel
        if (trial % 7 == 0) a = 0;
        if (trial % 11 == 0) std::swap(a, b);  // lo > hi: nothing
        ExpectSortedMatchesOracle(*k, slots, values, a, b);
      }
    }
  }
}

TEST(SimdKernelTest, RangeCollectSortedAroundTheRankCutoff) {
  constexpr size_t kCut = simd::kSortedRankCutoff;
  std::mt19937_64 rng(22);
  for (SimdLevel level : VectorLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const size_t cap : {3u, 64u, 1023u}) {
      const std::vector<Key> slots = MakeShuffledSlots(cap, 0.7, rng);
      const std::vector<Value> values = ValuesFor(slots);
      std::vector<Key> live;
      for (Key key : slots) {
        if (key != kEbhEmptySlot) live.push_back(key);
      }
      std::sort(live.begin(), live.end());
      ASSERT_FALSE(live.empty());
      // cap 1023 at load 0.7 holds ~700 keys, enough to straddle the
      // cutoff; the small caps cover what they hold.
      for (const size_t hits :
           {size_t{0}, size_t{1}, kCut - 1, kCut, kCut + 1, live.size()}) {
        if (hits > live.size()) continue;
        for (int trial = 0; trial < 8; ++trial) {
          const size_t s =
              rng() % (live.size() - std::max<size_t>(hits, 1) + 1);
          // Keys are multiples of 3, so (live[s], live[s] + 2] is empty.
          const Key lo = hits == 0 ? live[s] + 1 : live[s];
          const Key hi = hits == 0 ? live[s] + 2 : live[s + hits - 1];
          std::vector<KeyValue> check;
          ASSERT_EQ(simd::detail::ScalarRangeCollect(
                        slots.data(), values.data(), cap, lo, hi,
                        kEbhEmptySlot, &check),
                    hits);
          ExpectSortedMatchesOracle(*k, slots, values, lo, hi);
        }
      }
    }
  }
}

TEST(SimdKernelTest, RangeCollectSortedUnsignedBoundaries) {
  // The RangeCollectUnsignedBoundaries slots, in descending slot order
  // so the kernel must reorder across 2^63 (where a signed rank compare
  // would put the top half first).
  const std::vector<Key> slots = {5,
                                  kMaxKey - 1,
                                  (Key{1} << 63) + 1,
                                  Key{1} << 63,
                                  kEbhEmptySlot,
                                  (Key{1} << 63) - 1,
                                  1,
                                  0,
                                  (Key{1} << 62) + 3};
  const std::vector<Value> values = {16, 15, 14, 13, 0, 12, 11, 10, 17};
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const ProbeKernels* k = simd::KernelsForLevel(level);
    for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
             {0, kMaxKey},
             {Key{1} << 63, kMaxKey},
             {0, (Key{1} << 63) - 1},
             {(Key{1} << 63) - 1, (Key{1} << 63) + 1},
             {kMaxKey, kMaxKey},
             {kMaxKey - 1, 0}}) {
      ExpectSortedMatchesOracle(*k, slots, values, lo, hi);
    }
  }
}

// --- EbhLeaf differential ---------------------------------------------------

/// Runs the same build + insert + erase sequence under `level` and
/// returns the leaf; raw slot arrays must come out bit-identical for
/// every tier because find_nearest reproduces the scalar placement
/// order exactly.
EbhLeaf BuildLeafUnder(SimdLevel level) {
  ScopedSimdLevel scoped(level);
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, 5000, 99);
  EbhLeaf leaf(0, kMaxKey - 1, keys.size(), 0.45);
  leaf.Build(ToKeyValues(keys));
  EXPECT_EQ(leaf.probe_kernels().level, level);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 4000; ++i) {
    leaf.Insert(rng() % (kMaxKey - 2), i);
    if (i % 3 == 0) leaf.Erase(keys[rng() % keys.size()]);
  }
  return leaf;
}

TEST(SimdKernelTest, EbhLeafStateBitIdenticalAcrossTiers) {
  const EbhLeaf oracle = BuildLeafUnder(SimdLevel::kScalar);
  for (SimdLevel level : VectorLevels()) {
    const EbhLeaf leaf = BuildLeafUnder(level);
    EXPECT_EQ(leaf.num_keys(), oracle.num_keys()) << LevelName(level);
    EXPECT_EQ(leaf.conflict_degree(), oracle.conflict_degree())
        << LevelName(level);
    EXPECT_EQ(leaf.total_shifts(), oracle.total_shifts()) << LevelName(level);
    ASSERT_EQ(leaf.raw_keys(), oracle.raw_keys()) << LevelName(level);
    ASSERT_EQ(leaf.raw_values(), oracle.raw_values()) << LevelName(level);
    // Reads through each tier over the identical arrays agree too.
    std::vector<KeyValue> a;
    std::vector<KeyValue> b;
    oracle.RangeScan(0, kMaxKey, &a);
    leaf.RangeScan(0, kMaxKey, &b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      Value v = 0;
      ASSERT_TRUE(leaf.Lookup(a[i].key, &v));
      EXPECT_EQ(v, a[i].value);
    }
  }
}

// --- ChameleonIndex differential -------------------------------------------

TEST(SimdKernelTest, ChameleonIndexCrudSweepMatchesScalarOracle) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 20'000, 5);
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("mixed(w=0.5)"), keys, 17, 30'000);

  // Oracle pass under the scalar tier.
  std::vector<uint8_t> oracle_ok;
  std::vector<Value> oracle_val;
  std::vector<KeyValue> oracle_scan;
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    ChameleonIndex index;
    index.BulkLoad(ToKeyValues(keys));
    for (const Operation& op : ops) {
      Value v = 0;
      bool ok = false;
      switch (op.type) {
        case OpType::kLookup: ok = index.Lookup(op.key, &v); break;
        case OpType::kInsert: ok = index.Insert(op.key, op.value); break;
        case OpType::kErase: ok = index.Erase(op.key); break;
        default: break;
      }
      oracle_ok.push_back(ok);
      oracle_val.push_back(v);
    }
    index.RangeScan(keys[100], keys[keys.size() - 100], &oracle_scan);
  }

  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    ChameleonIndex index;
    index.BulkLoad(ToKeyValues(keys));
    size_t i = 0;
    for (const Operation& op : ops) {
      Value v = 0;
      bool ok = false;
      switch (op.type) {
        case OpType::kLookup: ok = index.Lookup(op.key, &v); break;
        case OpType::kInsert: ok = index.Insert(op.key, op.value); break;
        case OpType::kErase: ok = index.Erase(op.key); break;
        default: break;
      }
      ASSERT_EQ(ok, static_cast<bool>(oracle_ok[i]))
          << LevelName(level) << " op " << i;
      ASSERT_EQ(v, oracle_val[i]) << LevelName(level) << " op " << i;
      ++i;
    }
    std::vector<KeyValue> scan;
    index.RangeScan(keys[100], keys[keys.size() - 100], &scan);
    ASSERT_EQ(scan.size(), oracle_scan.size()) << LevelName(level);
    for (size_t j = 0; j < scan.size(); ++j) {
      ASSERT_EQ(scan[j].key, oracle_scan[j].key) << LevelName(level);
      ASSERT_EQ(scan[j].value, oracle_scan[j].value) << LevelName(level);
    }
    // The batched read pipeline must agree with per-key Lookup under
    // every tier (prefetch stages may not change results).
    std::vector<Key> probe(keys.begin() + 500, keys.begin() + 1500);
    std::vector<Value> batch_vals(probe.size(), 0);
    std::unique_ptr<bool[]> batch_found(new bool[probe.size()]());
    index.LookupBatch(probe, batch_vals.data(), batch_found.get());
    for (size_t j = 0; j < probe.size(); ++j) {
      Value v = 0;
      const bool ok = index.Lookup(probe[j], &v);
      ASSERT_EQ(batch_found[j], ok) << LevelName(level);
      if (ok) {
        ASSERT_EQ(batch_vals[j], v) << LevelName(level);
      }
    }
  }
}

// --- Sorted range scans past the rank cutoff ------------------------------

/// Asserts `got` (after a non-empty prefix) holds exactly the oracle's
/// pairs with keys in [lo, hi], in order.
void ExpectScanEqualsMap(const std::map<Key, Value>& oracle, Key lo, Key hi,
                         size_t prefix, size_t n,
                         const std::vector<KeyValue>& got) {
  std::vector<KeyValue> expect;
  if (lo <= hi) {
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi; ++it) {
      expect.push_back({it->first, it->second});
    }
  }
  ASSERT_EQ(n, expect.size()) << "[" << lo << "," << hi << "]";
  ASSERT_EQ(got.size(), prefix + n);
  ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin() + prefix))
      << "[" << lo << "," << hi << "]";
}

TEST(SimdKernelTest, EbhLeafRangeScanPastTheCutoffMatchesMap) {
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    ScopedSimdLevel scoped(level);
    std::mt19937_64 rng(31);
    EbhLeaf leaf(0, 1'000'000, 64, 0.45);
    std::map<Key, Value> oracle;
    // 4x the cutoff through Insert, so the leaf expands repeatedly, then
    // erase a quarter back out.
    while (oracle.size() < 4 * simd::kSortedRankCutoff) {
      const Key key = rng() % 1'000'000;
      ASSERT_EQ(leaf.Insert(key, key + 1), oracle.emplace(key, key + 1).second);
    }
    for (int i = 0; i < static_cast<int>(simd::kSortedRankCutoff); ++i) {
      const Key key = rng() % 1'000'000;
      ASSERT_EQ(leaf.Erase(key), oracle.erase(key) == 1);
    }
    ASSERT_GT(leaf.num_keys(), simd::kSortedRankCutoff + 1);
    for (int trial = 0; trial < 300; ++trial) {
      Key lo = rng() % 1'000'000;
      Key hi = lo + rng() % (trial % 3 == 0 ? 1'000'000 : 20'000);
      if (trial == 0) {
        lo = 0;
        hi = kMaxKey;
      }
      std::vector<KeyValue> got = {{9, 9}};
      const size_t n = leaf.RangeScan(lo, hi, &got);
      ExpectScanEqualsMap(oracle, lo, hi, 1, n, got);
    }
  }
}

/// One test per tier available on this host: a ChameleonIndex whose
/// leaves grew past the rank cutoff under insert/erase churn must scan
/// exactly like a std::map.
class SortedScanTierTest : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(SortedScanTierTest, ChurnedIndexScansLikeMap) {
  ScopedSimdLevel scoped(GetParam());
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kFace, 20'000, 8);
  ChameleonConfig config;
  config.full_rebuild_threshold_pct = 0;  // keep the churned leaves
  ChameleonIndex index(config);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  index.BulkLoad(data);
  std::map<Key, Value> oracle;
  for (const KeyValue& kv : data) oracle.emplace(kv.key, kv.value);

  // Crowd 2000 fresh keys into the narrowest gap between neighbours
  // that fits them. Leaf boundaries come from linear models over the
  // whole key range, so a gap this narrow meets at most one and one
  // leaf receives at least 1000 keys: far past the cutoff.
  constexpr Key kCrowd = 2000;
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t gap = kNone;
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const Key width = keys[i + 1] - keys[i];
    if (width > 4 * kCrowd &&
        (gap == kNone || width < keys[gap + 1] - keys[gap])) {
      gap = i;
    }
  }
  ASSERT_NE(gap, kNone);
  std::mt19937_64 rng(9);
  const Key gap_lo = keys[gap] + 1;
  const Key gap_width = keys[gap + 1] - keys[gap] - 1;
  size_t crowded = 0;
  while (crowded < kCrowd) {
    const Key key = gap_lo + rng() % gap_width;
    const bool fresh = oracle.emplace(key, key ^ 0xabc).second;
    ASSERT_EQ(index.Insert(key, key ^ 0xabc), fresh);
    crowded += fresh;
  }
  // Churn everywhere: erase a tenth of the bulk keys and a quarter of
  // the crowd, insert fresh keys across the range.
  for (int i = 0; i < 4000; ++i) {
    const Key bulk = keys[rng() % keys.size()];
    ASSERT_EQ(index.Erase(bulk), oracle.erase(bulk) == 1);
    if (i % 2 == 0) {
      const Key crowd = gap_lo + rng() % gap_width;
      ASSERT_EQ(index.Erase(crowd), oracle.erase(crowd) == 1);
    }
    const Key fresh = keys.front() + rng() % (keys.back() - keys.front());
    ASSERT_EQ(index.Insert(fresh, fresh + 5),
              oracle.emplace(fresh, fresh + 5).second);
  }

  std::vector<Key> live;
  for (const auto& [key, value] : oracle) live.push_back(key);
  const auto scan = [&](Key lo, Key hi) {
    std::vector<KeyValue> got = {{1, 2}};
    const size_t n = index.RangeScan(lo, hi, &got);
    ExpectScanEqualsMap(oracle, lo, hi, 1, n, got);
  };
  scan(0, kMaxKey);
  scan(keys[gap], keys[gap + 1]);
  scan(keys[gap + 1], keys[gap]);  // lo > hi
  for (int trial = 0; trial < 400; ++trial) {
    const size_t a = rng() % live.size();
    const size_t width = 1 + rng() % (trial % 4 == 0 ? 5000 : 300);
    const size_t b = std::min(live.size() - 1, a + width);
    // Endpoints on live keys, just past them, and inside the crowd.
    const Key lo = trial % 2 == 0 ? live[a] : live[a] + 1;
    const Key hi = trial % 3 == 0 ? gap_lo + gap_width : live[b];
    scan(std::min(lo, hi), std::max(lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, SortedScanTierTest,
    ::testing::ValuesIn(simd::AvailableSimdLevels()),
    [](const ::testing::TestParamInfo<SimdLevel>& info) {
      return LevelName(info.param);
    });

}  // namespace
}  // namespace chameleon
