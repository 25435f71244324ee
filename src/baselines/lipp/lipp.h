#ifndef CHAMELEON_BASELINES_LIPP_LIPP_H_
#define CHAMELEON_BASELINES_LIPP_LIPP_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace chameleon {

/// LIPP baseline (Wu et al., VLDB 2021): a learned index with *precise
/// positions* — every node is a slot array addressed by a per-node
/// linear model, and each slot is either empty, one record, or a child
/// pointer. Keys that collide under the model are pushed into a child
/// node (the "downward split" whose depth growth on skewed data the
/// paper's Table V measures). Lookups therefore never do a secondary
/// search: prediction error is exactly 0 by construction.
///
/// Updates: inserting into an empty slot is O(1); inserting onto an
/// occupied slot creates a child holding both records. Subtrees that
/// accumulate inserts beyond a multiple of their built size are rebuilt
/// (LIPP's adjustment), which is what makes its amortized update cost
/// O(log^2 |D|) in the paper's Table III.
class LippIndex final : public KvIndex {
 public:
  struct Config {
    double slot_expansion = 2.0;   // slots per key at build time
    double rebuild_factor = 1.0;   // rebuild when inserts > factor * built
    size_t min_capacity = 16;
  };

  LippIndex();
  explicit LippIndex(Config config);
  ~LippIndex() override;

  LippIndex(const LippIndex&) = delete;
  LippIndex& operator=(const LippIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const override;
  size_t size() const override { return size_; }
  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return "LIPP"; }

 private:
  struct Node;

  std::unique_ptr<Node> BuildNode(std::span<const KeyValue> data, int depth);
  void Collect(const Node* node, std::vector<KeyValue>* out) const;
  /// Calls fn(node, depth) on every node in pre-order, the root at
  /// depth 1: the one full-tree walk behind SizeBytes() and Stats().
  template <typename Fn>
  static void VisitNodes(const Node* node, int depth, Fn&& fn);

  Config config_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_LIPP_LIPP_H_
