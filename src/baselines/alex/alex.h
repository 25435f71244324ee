#ifndef CHAMELEON_BASELINES_ALEX_ALEX_H_
#define CHAMELEON_BASELINES_ALEX_ALEX_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// ALEX baseline (Ding et al., SIGMOD 2020): an updatable adaptive
/// learned index with linear-model inner nodes and gapped-array data
/// nodes.
///
/// Faithfully reproduced mechanisms:
///  * inner nodes partition their key interval uniformly in model space
///    (linear model => equi-width child ranges), so locally skewed data
///    concentrates in few children and deepens the tree — the behaviour
///    the paper's Table V measures;
///  * data nodes are gapped arrays at ~70% density with model-based
///    inserts: a linear regression predicts the slot, conflicts shift
///    keys toward the nearest gap (the update cost the paper's Fig. 1(b)
///    oscillation comes from);
///  * gaps duplicate their nearest right-occupied key so the array stays
///    non-decreasing and exponential search from the prediction works;
///  * full nodes expand (retrain) or split sideways into a 2-way inner
///    node when they exceed the max node size.
///
/// Omitted relative to the full system: the fanout cost model (we use a
/// density heuristic), iterator API, and key compression — engineering
/// details that shift constants, not comparative shapes.
class AlexIndex final : public KvIndex {
 public:
  struct Config {
    size_t max_leaf_keys = 8192;    // split threshold
    size_t target_leaf_keys = 2048; // bulk-load leaf sizing
    double density = 0.7;           // initial gapped-array fill
    double expansion_threshold = 0.85;
  };

  AlexIndex();
  explicit AlexIndex(Config config);
  ~AlexIndex() override;

  AlexIndex(const AlexIndex&) = delete;
  AlexIndex& operator=(const AlexIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override { return size_; }
  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return "ALEX"; }

  /// Number of slot shifts performed by inserts since construction
  /// (exposed for the Fig. 1(b) motivation bench).
  size_t total_shifts() const { return total_shifts_; }

 private:
  struct Node;
  struct DataNode;
  struct InnerNode;

  std::unique_ptr<Node> BuildSubtree(std::span<const KeyValue> data, Key lo,
                                     Key hi, int depth);
  std::unique_ptr<DataNode> BuildDataNode(std::span<const KeyValue> data,
                                          Key lo, Key hi);
  static std::vector<KeyValue> CollectPairs(const DataNode& leaf);
  /// Calls fn(node, depth) on every node in pre-order, the root at
  /// depth 1: the one full-tree walk behind SizeBytes() and Stats().
  template <typename Fn>
  static void VisitNodes(const Node* node, int depth, Fn&& fn);
  DataNode* FindLeaf(Key key) const;
  /// Splits `leaf` (known child `child_idx` of `parent`, or root) into a
  /// 2-way inner node.
  void SplitLeaf(InnerNode* parent, size_t child_idx);

  Config config_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t total_shifts_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_ALEX_ALEX_H_
