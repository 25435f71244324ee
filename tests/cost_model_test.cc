#include <vector>

#include <gtest/gtest.h>

#include "src/core/cost_model.h"

namespace chameleon {
namespace {

TEST(CostModelTest, LeafTimeGrowsWithPopulation) {
  EXPECT_LT(EbhLeafTimeCost(10, 0.45), EbhLeafTimeCost(1'000, 0.45));
  EXPECT_LT(EbhLeafTimeCost(1'000, 0.45), EbhLeafTimeCost(1'000'000, 0.45));
  EXPECT_GE(EbhLeafTimeCost(1, 0.45), 1.0);
}

TEST(CostModelTest, LeafTimeGrowsWithTau) {
  // Higher collision probability => longer expected scans.
  EXPECT_LT(EbhLeafTimeCost(1'000, 0.1), EbhLeafTimeCost(1'000, 0.9));
}

TEST(CostModelTest, LeafMemShrinksWithTau) {
  // Permitting more collisions allows smaller tables.
  EXPECT_GT(EbhLeafMemCost(1'000, 0.1), EbhLeafMemCost(1'000, 0.9));
  // Always at least one slot per key.
  EXPECT_GE(EbhLeafMemCost(1'000, 0.99), 1.0);
}

TEST(CostModelTest, RefinedNodeTakesTheBestOfLeafAndSplits) {
  // Staying a leaf is one candidate, so refinement never costs more.
  for (size_t n : {1, 64, 1'000, 1'000'000}) {
    const TimeMemCost refined = RefinedNodeCost(n, 0.45);
    EXPECT_LE(refined.time, EbhLeafTimeCost(n, 0.45));
    EXPECT_LE(refined.mem, EbhLeafMemCost(n, 0.45));
  }
  // A million-key node is faster split 1024 ways than as one leaf.
  const TimeMemCost big = RefinedNodeCost(1'000'000, 0.45);
  EXPECT_DOUBLE_EQ(big.time, kInnerHopTimeCost + EbhLeafTimeCost(977, 0.45));
}

TEST(CostModelTest, SplittingHelpsBigNodes) {
  // A 64k-key node split 256 ways into 256-key children should beat one
  // giant leaf on the default weights.
  std::vector<size_t> even(256, 256);
  const double split = PartitionCost(even, 65'536, 0.45, 0.5, 0.5);
  const double leaf = LeafCost(65'536, 0.45, 0.5, 0.5);
  EXPECT_LT(split, leaf);
}

TEST(CostModelTest, SplittingTinyNodesWastesMemory) {
  // An 8-key node split 1024 ways pays pointer overhead for nothing.
  std::vector<size_t> sparse(1024, 0);
  for (int i = 0; i < 8; ++i) sparse[i * 100] = 1;
  const double split = PartitionCost(sparse, 8, 0.45, 0.5, 0.5);
  const double leaf = LeafCost(8, 0.45, 0.5, 0.5);
  EXPECT_GT(split, leaf);
}

TEST(CostModelTest, BalancedBeatsLopsidedPartition) {
  std::vector<size_t> balanced(16, 1'000);
  std::vector<size_t> lopsided(16, 0);
  lopsided[0] = 16'000;
  const double b = PartitionCost(balanced, 16'000, 0.45, 0.5, 0.5);
  const double l = PartitionCost(lopsided, 16'000, 0.45, 0.5, 0.5);
  EXPECT_LT(b, l);
}

TEST(CostModelTest, EmptyNodeDegenerates) {
  EXPECT_GT(LeafCost(0, 0.45, 0.5, 0.5), 0.0);
  EXPECT_GT(PartitionCost(std::vector<size_t>{}, 0, 0.45, 0.5, 0.5), 0.0);
}

TEST(CostModelTest, WeightsShiftTheTradeoff) {
  // Time-only weighting should always prefer a deep split of a big node;
  // memory-only weighting should prefer the leaf.
  std::vector<size_t> even(1024, 64);
  const size_t total = 1024 * 64;
  EXPECT_LT(PartitionCost(even, total, 0.45, 1.0, 0.0),
            LeafCost(total, 0.45, 1.0, 0.0));
  EXPECT_GT(PartitionCost(even, total, 0.45, 0.0, 1.0),
            LeafCost(total, 0.45, 0.0, 1.0));
}

}  // namespace
}  // namespace chameleon
