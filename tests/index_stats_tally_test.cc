// IndexStatsTally: the one definition of the Table V measures, checked
// against hand-computed values for the leaf and sub-index cases every
// index's Stats() is built from.

#include <gtest/gtest.h>

#include "src/api/kv_index.h"

namespace chameleon {
namespace {

TEST(IndexStatsTallyTest, EmptyTallyIsAllZero) {
  const IndexStats s = IndexStatsTally().Finish();
  EXPECT_EQ(s.num_nodes, 0u);
  EXPECT_EQ(s.max_height, 0);
  EXPECT_EQ(s.avg_height, 0.0);
  EXPECT_EQ(s.max_error, 0.0);
  EXPECT_EQ(s.avg_error, 0.0);
}

TEST(IndexStatsTallyTest, KeylessIndexAveragesItsDeepestLeaf) {
  // An emptied tree: one root leaf, no keys. The average height falls
  // back to the deepest leaf, the average error to zero.
  IndexStatsTally tally;
  tally.AddNodes();
  tally.AddLeaf(1, 0);
  const IndexStats s = tally.Finish();
  EXPECT_EQ(s.num_nodes, 1u);
  EXPECT_EQ(s.max_height, 1);
  EXPECT_EQ(s.avg_height, 1.0);
  EXPECT_EQ(s.avg_error, 0.0);
}

TEST(IndexStatsTallyTest, LeavesAreWeightedByKeyCount) {
  // Root plus two leaves: 10 keys at level 2, 30 keys at level 3.
  IndexStatsTally tally;
  tally.AddNodes(3);
  tally.AddLeaf(2, 10, /*err_sum=*/5.0, /*err_max=*/2.0);
  tally.AddLeaf(3, 30, /*err_sum=*/15.0, /*err_max=*/4.0);
  const IndexStats s = tally.Finish();
  EXPECT_EQ(s.num_nodes, 3u);
  EXPECT_EQ(s.max_height, 3);
  EXPECT_DOUBLE_EQ(s.avg_height, (10 * 2 + 30 * 3) / 40.0);  // 2.75
  EXPECT_EQ(s.max_error, 4.0);
  EXPECT_DOUBLE_EQ(s.avg_error, 20.0 / 40.0);
}

TEST(IndexStatsTallyTest, SubIndexesOneLevelDownShiftTheirHeights) {
  // DILI's case: a root node over two children one level below it.
  IndexStats a;
  a.max_height = 2;
  a.avg_height = 1.5;
  a.num_nodes = 5;
  IndexStats b;
  b.max_height = 3;
  b.avg_height = 2.0;
  b.num_nodes = 7;
  IndexStatsTally tally;
  tally.AddNodes();
  tally.AddSubIndex(a, 10, /*levels_above=*/1);
  tally.AddSubIndex(b, 30, /*levels_above=*/1);
  const IndexStats s = tally.Finish();
  EXPECT_EQ(s.num_nodes, 13u);
  EXPECT_EQ(s.max_height, 4);
  EXPECT_DOUBLE_EQ(s.avg_height, (2.5 * 10 + 3.0 * 30) / 40.0);  // 2.875
  EXPECT_EQ(s.max_error, 0.0);
  EXPECT_EQ(s.avg_error, 0.0);
}

TEST(IndexStatsTallyTest, SubIndexesAtTheSameLevelMergeByKeys) {
  // Sharded's case: shards side by side, no router level counted.
  IndexStats a;
  a.max_height = 3;
  a.avg_height = 2.5;
  a.max_error = 6.0;
  a.avg_error = 1.0;
  a.num_nodes = 10;
  IndexStats b;
  b.max_height = 2;
  b.avg_height = 2.0;
  b.max_error = 4.0;
  b.avg_error = 0.5;
  b.num_nodes = 4;
  IndexStatsTally tally;
  tally.AddSubIndex(a, 20);
  tally.AddSubIndex(b, 60);
  const IndexStats s = tally.Finish();
  EXPECT_EQ(s.num_nodes, 14u);
  EXPECT_EQ(s.max_height, 3);
  EXPECT_DOUBLE_EQ(s.avg_height, (2.5 * 20 + 2.0 * 60) / 80.0);  // 2.125
  EXPECT_EQ(s.max_error, 6.0);
  EXPECT_DOUBLE_EQ(s.avg_error, (1.0 * 20 + 0.5 * 60) / 80.0);  // 0.625
}

TEST(IndexStatsTallyTest, KeylessSubIndexAddsOnlyItsNodesAndMaxima) {
  // Disk's case with an empty delta: its nodes and maxima count, its
  // averages carry no weight.
  IndexStats delta;
  delta.max_height = 1;
  delta.avg_height = 1.0;
  delta.num_nodes = 1;
  IndexStatsTally tally;
  tally.AddNodes(4);
  tally.AddLeaf(2, 100);
  tally.AddSubIndex(delta, 0);
  const IndexStats s = tally.Finish();
  EXPECT_EQ(s.num_nodes, 5u);
  EXPECT_EQ(s.max_height, 2);
  EXPECT_EQ(s.avg_height, 2.0);
  EXPECT_EQ(s.avg_error, 0.0);
}

}  // namespace
}  // namespace chameleon
