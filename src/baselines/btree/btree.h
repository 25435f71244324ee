#ifndef CHAMELEON_BASELINES_BTREE_BTREE_H_
#define CHAMELEON_BASELINES_BTREE_BTREE_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// Classic in-memory B+Tree (the paper's "B+Tree" baseline, standing in
/// for STX B+Tree): sorted-array nodes with binary search at every level.
///
/// Structure: inner nodes hold separator keys and child pointers; leaf
/// nodes hold sorted (key, value) arrays. Bulk load builds bottom-up at
/// ~85% leaf fill. Insert splits full nodes top-down recursion style.
/// Erase removes in place and drops nodes that become empty (no
/// borrow/merge rebalancing — heights can only shrink via root collapse;
/// this is the common in-memory simplification and does not affect the
/// comparative measurements).
class BPlusTree final : public KvIndex {
 public:
  /// `leaf_capacity`/`inner_fanout` default to cache-friendly values
  /// comparable to STX's defaults for 16-byte entries.
  explicit BPlusTree(size_t leaf_capacity = 128, size_t inner_fanout = 128);
  ~BPlusTree() override;

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override { return size_; }
  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return "B+Tree"; }

 private:
  struct Node;
  struct SplitResult;

  SplitResult InsertRec(Node* node, Key key, Value value, bool* inserted);
  bool EraseRec(Node* node, Key key, bool* now_empty);
  /// Calls fn(node, depth) on every node in pre-order, the root at
  /// depth 1: the one full-tree walk behind SizeBytes() and Stats().
  template <typename Fn>
  static void VisitNodes(const Node* node, int depth, Fn&& fn);

  std::unique_ptr<Node> root_;
  size_t leaf_capacity_;
  size_t inner_fanout_;
  size_t size_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_BTREE_BTREE_H_
