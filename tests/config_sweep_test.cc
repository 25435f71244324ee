// Configuration-space sweeps: every index must stay correct across its
// own tuning knobs, not just at defaults (catching threshold/boundary
// bugs that only appear at extreme parameter values).

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/alex/alex.h"
#include "src/baselines/btree/btree.h"
#include "src/baselines/finedex/finedex.h"
#include "src/baselines/lipp/lipp.h"
#include "src/baselines/pgm/pgm.h"
#include "src/baselines/radixspline/radix_spline.h"
#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

// Shared mixed-workload correctness harness.
void RunCrudHarness(KvIndex* index, size_t n = 10'000, size_t ops = 15'000) {
  const std::vector<Key> keys = GenerateDataset(DatasetKind::kLogn, n, 41);
  index->BulkLoad(ToKeyValues(keys));
  std::map<Key, Value> ref;
  for (const KeyValue& kv : ToKeyValues(keys)) ref[kv.key] = kv.value;
  for (const Operation& op : MaterializeWorkload(
           ParseWorkloadOrDie("mixed(w=0.5)"), keys, 43, ops)) {
    switch (op.type) {
      case OpType::kLookup: {
        Value v = 0;
        ASSERT_TRUE(index->Lookup(op.key, &v)) << op.key;
        ASSERT_EQ(v, ref.at(op.key));
        break;
      }
      case OpType::kInsert:
        ASSERT_TRUE(index->Insert(op.key, op.value)) << op.key;
        ref[op.key] = op.value;
        break;
      case OpType::kErase:
        ASSERT_TRUE(index->Erase(op.key)) << op.key;
        ref.erase(op.key);
        break;
      case OpType::kUpdate:
      case OpType::kScan:
        FAIL() << "MixedReadWrite never emits " << OpTypeName(op.type);
    }
  }
  ASSERT_EQ(index->size(), ref.size());
}

class BtreeFanoutTest : public ::testing::TestWithParam<size_t> {};
TEST_P(BtreeFanoutTest, CrudAcrossFanouts) {
  BPlusTree tree(GetParam(), GetParam());
  RunCrudHarness(&tree);
}
INSTANTIATE_TEST_SUITE_P(Fanouts, BtreeFanoutTest,
                         ::testing::Values(4, 16, 64, 512));

class PgmEpsilonTest : public ::testing::TestWithParam<size_t> {};
TEST_P(PgmEpsilonTest, CrudAcrossEpsilons) {
  PgmIndex index(GetParam(), /*buffer_capacity=*/64);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Epsilons, PgmEpsilonTest,
                         ::testing::Values(4, 16, 64, 512));

class RsEpsilonTest : public ::testing::TestWithParam<size_t> {};
TEST_P(RsEpsilonTest, CrudAcrossEpsilons) {
  RadixSpline index(GetParam(), /*radix_bits=*/12);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Epsilons, RsEpsilonTest,
                         ::testing::Values(1, 8, 64, 256));

class AlexLeafTest : public ::testing::TestWithParam<size_t> {};
TEST_P(AlexLeafTest, CrudAcrossLeafSizes) {
  AlexIndex::Config config;
  config.max_leaf_keys = GetParam();
  config.target_leaf_keys = GetParam() / 4;
  AlexIndex index(config);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(LeafSizes, AlexLeafTest,
                         ::testing::Values(64, 512, 4096, 65536));

class LippExpansionTest : public ::testing::TestWithParam<double> {};
TEST_P(LippExpansionTest, CrudAcrossSlotExpansions) {
  LippIndex::Config config;
  config.slot_expansion = GetParam();
  LippIndex index(config);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Expansions, LippExpansionTest,
                         ::testing::Values(1.2, 2.0, 4.0));

class FinedexGroupTest : public ::testing::TestWithParam<size_t> {};
TEST_P(FinedexGroupTest, CrudAcrossGroupSizes) {
  FinedexIndex::Config config;
  config.group_size = GetParam();
  config.bin_capacity = GetParam() / 4;
  FinedexIndex index(config);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Groups, FinedexGroupTest,
                         ::testing::Values(32, 256, 2048));

class ChameleonTauTest : public ::testing::TestWithParam<double> {};
TEST_P(ChameleonTauTest, CrudAcrossTaus) {
  ChameleonConfig config;
  config.tau = GetParam();
  config.dare.ga.population = 8;
  config.dare.ga.generations = 5;
  config.dare.fitness_sample = 1'000;
  ChameleonIndex index(config);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Taus, ChameleonTauTest,
                         ::testing::Values(0.05, 0.45, 0.9));

class ChameleonLeafTargetTest : public ::testing::TestWithParam<size_t> {};
TEST_P(ChameleonLeafTargetTest, CrudAcrossLeafTargets) {
  ChameleonConfig config;
  config.target_leaf_keys = GetParam();
  config.mode = ChameleonMode::kEbhOnly;  // target drives ChaB directly
  ChameleonIndex index(config);
  RunCrudHarness(&index);
}
INSTANTIATE_TEST_SUITE_P(Targets, ChameleonLeafTargetTest,
                         ::testing::Values(16, 64, 1024));

}  // namespace
}  // namespace chameleon
