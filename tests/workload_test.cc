#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/dataset.h"
#include "src/workload/key_chooser.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

std::vector<Key> LoadedKeys() {
  return GenerateDataset(DatasetKind::kOsmc, 5'000, 11);
}

/// Replays operations against a reference map and asserts every op is
/// valid at its point in the stream (lookups/erases/updates hit,
/// inserts are fresh, scan ranges are well-formed and non-empty).
/// `live_after`, when given, receives the number of keys left live.
void ReplayAndValidate(const std::vector<Key>& loaded,
                       const std::vector<Operation>& ops,
                       size_t* live_after = nullptr) {
  std::map<Key, Value> ref;
  for (Key k : loaded) ref[k] = 0;
  for (const Operation& op : ops) {
    switch (op.type) {
      case OpType::kLookup:
        ASSERT_TRUE(ref.contains(op.key)) << "lookup of absent key";
        break;
      case OpType::kInsert:
        ASSERT_FALSE(ref.contains(op.key)) << "insert of present key";
        ref[op.key] = op.value;
        break;
      case OpType::kErase:
        ASSERT_EQ(ref.erase(op.key), 1u) << "erase of absent key";
        break;
      case OpType::kUpdate:
        ASSERT_TRUE(ref.contains(op.key)) << "update of absent key";
        ref[op.key] = op.value;
        break;
      case OpType::kScan: {
        const Key hi = static_cast<Key>(op.value);
        ASSERT_LE(op.key, hi) << "inverted scan range";
        const auto it = ref.lower_bound(op.key);
        ASSERT_TRUE(it != ref.end() && it->first <= hi)
            << "scan of empty range";
        break;
      }
    }
  }
  if (live_after != nullptr) *live_after = ref.size();
}

// --- Golden streams (bit-identity across refactors) -------------------------

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashOps(const std::vector<Operation>& ops) {
  uint64_t h = 1469598103934665603ULL;
  for (const Operation& op : ops) {
    h = Fnv(h, static_cast<uint64_t>(op.type));
    h = Fnv(h, op.key);
    h = Fnv(h, op.value);
  }
  return h;
}

TEST(WorkloadTest, ReadOnlyOpsAreValidLookups) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops =
      MaterializeWorkload(ParseWorkloadOrDie("read"), loaded, 1, 10'000);
  ASSERT_EQ(ops.size(), 10'000u);
  ReplayAndValidate(loaded, ops);
}

TEST(WorkloadTest, ZipfReadOnlySkewsTowardFewKeys) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read(zipf=0.99)"), loaded, 2, 20'000);
  std::map<Key, int> counts;
  for (const Operation& op : ops) ++counts[op.key];
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  // Under uniform access the expected max is ~4; Zipf 0.99 concentrates.
  EXPECT_GT(max_count, 100);
}

TEST(WorkloadTest, MixedReadWriteValidAndRatioed) {
  const std::vector<Key> loaded = LoadedKeys();
  for (double ratio : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const std::string spec = "mixed(w=" + std::to_string(ratio) + ")";
    const std::vector<Operation> ops =
        MaterializeWorkload(ParseWorkloadOrDie(spec), loaded, 3, 10'000);
    ASSERT_EQ(ops.size(), 10'000u) << ratio;
    ReplayAndValidate(loaded, ops);
    size_t writes = 0;
    for (const Operation& op : ops) writes += op.type != OpType::kLookup;
    EXPECT_NEAR(static_cast<double>(writes) / ops.size(), ratio, 0.05)
        << ratio;
  }
}

TEST(WorkloadTest, MixedWritesAlternateInsertDelete) {
  const std::vector<Key> loaded = LoadedKeys();
  WorkloadGenerator gen(loaded, 4);
  const std::vector<Operation> ops = Drain(
      *MakeOpSource(ParseWorkloadOrDie("mixed(w=0.2)"), gen, loaded), 10'000);
  size_t inserts = 0, erases = 0;
  for (const Operation& op : ops) {
    inserts += op.type == OpType::kInsert;
    erases += op.type == OpType::kErase;
  }
  // The paper's 0.2 cycle: 8 reads, 1 insert, 1 delete.
  EXPECT_NEAR(static_cast<double>(inserts), static_cast<double>(erases),
              inserts * 0.05 + 2);
  // Live set stays near its initial size.
  EXPECT_NEAR(static_cast<double>(gen.live().size()),
              static_cast<double>(loaded.size()), loaded.size() * 0.05);
}

TEST(WorkloadTest, InsertDeleteRatios) {
  const std::vector<Key> loaded = LoadedKeys();
  for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const std::string spec = "insdel(u=" + std::to_string(u) + ")";
    // Keep the op count below the loaded size so a delete-only stream
    // (u = 0) never exhausts the pool and falls back to inserts.
    const std::vector<Operation> ops =
        MaterializeWorkload(ParseWorkloadOrDie(spec), loaded, 5, 4'000);
    ReplayAndValidate(loaded, ops);
    size_t inserts = 0;
    for (const Operation& op : ops) inserts += op.type == OpType::kInsert;
    EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), u, 0.05) << u;
  }
}

TEST(WorkloadTest, BatchedPhasesStructureAndValidity) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<WorkloadPhase> phases = MaterializeWorkloadPhases(
      ParseWorkloadOrDie("batched(pool=2000,queries=500)"), loaded, 6, 0, 0);
  ASSERT_EQ(phases.size(), 16u);  // (insert+query) x4, (delete+query) x4

  std::vector<Operation> all;
  size_t inserts = 0, erases = 0;
  for (const WorkloadPhase& phase : phases) {
    for (const Operation& op : phase.ops) {
      all.push_back(op);
      inserts += op.type == OpType::kInsert;
      erases += op.type == OpType::kErase;
    }
  }
  size_t live_after = 0;
  ReplayAndValidate(loaded, all, &live_after);
  EXPECT_EQ(inserts, 2'000u);
  EXPECT_EQ(erases, inserts);  // everything inserted is deleted again
  // Live set restored.
  EXPECT_EQ(live_after, loaded.size());
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const std::vector<Key> loaded = LoadedKeys();
  const WorkloadDesc desc = ParseWorkloadOrDie("mixed(w=0.4)");
  const std::vector<Operation> oa = MaterializeWorkload(desc, loaded, 7, 1'000);
  const std::vector<Operation> ob = MaterializeWorkload(desc, loaded, 7, 1'000);
  ASSERT_EQ(oa.size(), ob.size());
  for (size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].key, ob[i].key);
    EXPECT_EQ(static_cast<int>(oa[i].type), static_cast<int>(ob[i].type));
  }
}

TEST(WorkloadTest, FreshKeysNeverCollide) {
  const std::vector<Operation> ops =
      MaterializeWorkload(ParseWorkloadOrDie("insdel(u=1)"),
                          std::vector<Key>{1, 2, 3, 4, 5}, 8, 5'000);
  std::map<Key, int> seen;
  for (const Operation& op : ops) {
    ASSERT_EQ(op.type, OpType::kInsert);
    ASSERT_EQ(++seen[op.key], 1) << "duplicate fresh key " << op.key;
  }
}

// Golden stream hashes, captured from the hand-rolled generator loops
// that preceded the streaming sources, over OSMC 5k keys seed 11,
// generator seed 12345. These pin the bit-identity contract of the
// spec path (ParseWorkloadOrDie -> MakeOpSource): any change to draw
// order, fresh-key scheme, or mix interleaving shows up here before it
// silently shifts every BENCH_*.json.
TEST(WorkloadTest, GoldenStreamReadUniform) {
  EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie("read"),
                                        LoadedKeys(), 12345, 5'000)),
            1728061933714552348ULL);
}

TEST(WorkloadTest, GoldenStreamReadZipf99) {
  EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie("read(zipf=0.99)"),
                                        LoadedKeys(), 12345, 5'000)),
            17295761252406072337ULL);
}

TEST(WorkloadTest, GoldenStreamMixedW20) {
  EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie("mixed(w=0.2)"),
                                        LoadedKeys(), 12345, 5'000)),
            16280110563955634272ULL);
}

TEST(WorkloadTest, GoldenStreamMixedW60) {
  EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie("mixed(w=0.6)"),
                                        LoadedKeys(), 12345, 5'000)),
            5565348514564422737ULL);
}

TEST(WorkloadTest, GoldenStreamInsDelU50) {
  EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie("insdel(u=0.5)"),
                                        LoadedKeys(), 12345, 4'000)),
            5031648442864027122ULL);
}

TEST(WorkloadTest, GoldenStreamBatched) {
  uint64_t h = 1469598103934665603ULL;
  for (const WorkloadPhase& p : MaterializeWorkloadPhases(
           ParseWorkloadOrDie("batched(pool=2000,queries=500)"), LoadedKeys(),
           12345, 0, 0)) {
    for (const Operation& op : p.ops) {
      h = Fnv(h, static_cast<uint64_t>(op.type));
      h = Fnv(h, op.key);
      h = Fnv(h, op.value);
    }
  }
  EXPECT_EQ(h, 4681861850319904226ULL);
}

TEST(WorkloadTest, GoldenStreamChainedCalls) {
  // Sources built over one generator share its live set + rng; the
  // second stream depends on everything the first consumed.
  const std::vector<Key> loaded = LoadedKeys();
  WorkloadGenerator g(loaded, 77);
  (void)Drain(*MakeOpSource(ParseWorkloadOrDie("mixed(w=0.4)"), g, loaded),
              1'000);
  EXPECT_EQ(HashOps(Drain(
                *MakeOpSource(ParseWorkloadOrDie("read(zipf=0.9)"), g, loaded),
                1'000)),
            1520420203418788251ULL);
}

// --- YCSB mixes -------------------------------------------------------------

TEST(WorkloadTest, YcsbMixesAreValidAndDeterministic) {
  const std::vector<Key> loaded = LoadedKeys();
  for (const char* spec :
       {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"}) {
    const std::vector<Operation> ops = MaterializeWorkload(
        ParseWorkloadOrDie(spec), loaded, 21, 10'000);
    ASSERT_EQ(ops.size(), 10'000u) << spec;
    ReplayAndValidate(loaded, ops);
    const std::vector<Operation> again = MaterializeWorkload(
        ParseWorkloadOrDie(spec), loaded, 21, 10'000);
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(ops[i].key, again[i].key) << spec << " op " << i;
      ASSERT_EQ(static_cast<int>(ops[i].type),
                static_cast<int>(again[i].type));
    }
  }
}

// Unlike the paper families above, the YCSB mixes have no pre-refactor
// reference — these hashes were captured when the mixes first shipped
// and pin the streams (OSMC 5k seed 11, materialize seed 21, 10k ops)
// so future chooser/source changes can't silently reshuffle BENCH_ycsb
// blobs.
TEST(WorkloadTest, YcsbGoldenStreamHashes) {
  const std::vector<Key> loaded = LoadedKeys();
  const struct { const char* spec; uint64_t hash; } golden[] = {
      {"ycsb-a", 14664208272274495901ULL},
      {"ycsb-b", 2519361245174184477ULL},
      {"ycsb-c", 13723025305805426739ULL},
      {"ycsb-d", 1305642974276114978ULL},
      {"ycsb-e", 10778362231678797893ULL},
      {"ycsb-f", 10481423187815972740ULL},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(HashOps(MaterializeWorkload(ParseWorkloadOrDie(g.spec), loaded,
                                          21, 10'000)),
              g.hash)
        << g.spec;
  }
}

TEST(WorkloadTest, YcsbAProportionsAndSkew) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("ycsb-a"), loaded, 21, 20'000);
  size_t counts[kNumOpTypes] = {};
  std::map<Key, int> read_freq;
  for (const Operation& op : ops) {
    ++counts[static_cast<size_t>(op.type)];
    if (op.type == OpType::kLookup) ++read_freq[op.key];
  }
  const auto frac = [&](OpType t) {
    return static_cast<double>(counts[static_cast<size_t>(t)]) / ops.size();
  };
  EXPECT_NEAR(frac(OpType::kLookup), 0.5, 0.02);
  EXPECT_NEAR(frac(OpType::kUpdate), 0.5, 0.02);
  EXPECT_EQ(counts[static_cast<size_t>(OpType::kInsert)], 0u);
  // Zipf 0.99 reads concentrate far beyond uniform (~4 expected max).
  int max_count = 0;
  for (const auto& [k, c] : read_freq) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 100);
}

TEST(WorkloadTest, YcsbEScansAndInserts) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops =
      MaterializeWorkload(ParseWorkloadOrDie("ycsb-e(scan=50)"), loaded, 21,
                          20'000);
  size_t scans = 0, inserts = 0;
  for (const Operation& op : ops) {
    scans += op.type == OpType::kScan;
    inserts += op.type == OpType::kInsert;
  }
  EXPECT_NEAR(static_cast<double>(scans) / ops.size(), 0.95, 0.02);
  EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.05, 0.02);
  ReplayAndValidate(loaded, ops);
}

TEST(WorkloadTest, YcsbFReadModifyWritePairs) {
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("ycsb-f"), loaded, 21, 10'000);
  // Every kUpdate in mix F is the write half of an RMW: it immediately
  // follows a kLookup of the same key.
  size_t rmw = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type != OpType::kUpdate) continue;
    ASSERT_GT(i, 0u);
    ASSERT_EQ(static_cast<int>(ops[i - 1].type),
              static_cast<int>(OpType::kLookup));
    ASSERT_EQ(ops[i - 1].key, ops[i].key);
    ++rmw;
  }
  // ~half the draws are RMW; each contributes a lookup + update pair.
  EXPECT_NEAR(static_cast<double>(rmw) / ops.size(), 0.33, 0.05);
}

TEST(WorkloadTest, YcsbDLatestFavorsRecentInserts) {
  const std::vector<Key> loaded = LoadedKeys();
  // Latest dist: reads concentrate on the highest live ranks (the most
  // recent inserts land at the back of the live set).
  LatestChooser chooser(loaded.size(), 0.99, 99);
  Rng rng(7);
  size_t top_decile = 0;
  const size_t n = loaded.size();
  for (int i = 0; i < 10'000; ++i) {
    if (chooser.NextRank(n, rng) >= n - n / 10) ++top_decile;
  }
  EXPECT_GT(top_decile, 5'000u);  // uniform would give ~1'000
}

// --- Drifting hotspot -------------------------------------------------------

TEST(WorkloadTest, HotspotChooserConcentratesInWindow) {
  HotspotChooser chooser(/*width=*/0.05, /*period=*/1'000, /*hot=*/0.9);
  Rng rng(5);
  const size_t n = 100'000;
  size_t in_window = 0;
  for (uint64_t i = 0; i < 1'000; ++i) {
    const size_t start = chooser.WindowStartAt(i, n);
    const size_t w = chooser.WindowWidth(n);
    const size_t rank = chooser.NextRank(n, rng);
    ASSERT_LT(rank, n);
    const size_t offset = (rank + n - start) % n;
    in_window += offset < w;
  }
  // hot=0.9 in-window plus ~width of the uniform tail.
  EXPECT_GT(in_window, 850u);
}

TEST(WorkloadTest, HotspotWindowDriftsByItsWidthEachPeriod) {
  HotspotChooser chooser(0.05, 1'000, 0.9);
  const size_t n = 100'000;
  const size_t w = chooser.WindowWidth(n);
  EXPECT_EQ(w, 5'000u);
  EXPECT_EQ(chooser.WindowStartAt(0, n), 0u);
  EXPECT_EQ(chooser.WindowStartAt(999, n), 0u);
  EXPECT_EQ(chooser.WindowStartAt(1'000, n), w);
  EXPECT_EQ(chooser.WindowStartAt(2'500, n), 2 * w);
  // Wraps around the rank space instead of pinning to the end.
  EXPECT_EQ(chooser.WindowStartAt(20'000 * 1'000ull, n), 0u);
}

TEST(WorkloadTest, HotspotDriftMovesTheHotRangeMidRun) {
  // End-to-end through the spec layer: the hot key range in the first
  // period's reads is disjoint from the hot range a few periods later.
  const std::vector<Key> loaded = LoadedKeys();
  const std::vector<Operation> ops = MaterializeWorkload(
      ParseWorkloadOrDie("read(dist=hotspot(width=5%,period=2k,hot=0.95))"),
      loaded, 21, 8'000);
  ASSERT_EQ(ops.size(), 8'000u);
  const auto median_key = [&](size_t begin, size_t end) {
    std::vector<Key> keys;
    for (size_t i = begin; i < end; ++i) keys.push_back(ops[i].key);
    std::sort(keys.begin(), keys.end());
    return keys[keys.size() / 2];
  };
  // Period 0 hot window starts at rank 0; period 3 at rank 3*w. With
  // 95% of traffic in-window the medians must track the drift.
  const Key m0 = median_key(0, 2'000);
  const Key m3 = median_key(6'000, 8'000);
  EXPECT_LT(m0, m3);
}

}  // namespace
}  // namespace chameleon
