#include "src/baselines/btree/btree.h"

#include <algorithm>
#include <cassert>

namespace chameleon {

struct BPlusTree::Node {
  bool is_leaf = true;
  // Leaf payload.
  std::vector<Key> keys;
  std::vector<Value> values;
  // Inner payload: children.size() == keys.size() + 1; child i covers
  // keys < keys[i], the last child covers keys >= keys.back().
  std::vector<std::unique_ptr<Node>> children;
};

struct BPlusTree::SplitResult {
  bool split = false;
  Key separator = 0;
  std::unique_ptr<Node> right;
};

BPlusTree::BPlusTree(size_t leaf_capacity, size_t inner_fanout)
    : leaf_capacity_(std::max<size_t>(4, leaf_capacity)),
      inner_fanout_(std::max<size_t>(4, inner_fanout)) {
  root_ = std::make_unique<Node>();
}

BPlusTree::~BPlusTree() = default;

void BPlusTree::BulkLoad(std::span<const KeyValue> data) {
  root_ = std::make_unique<Node>();
  size_ = data.size();
  if (data.empty()) return;

  // Build leaves at ~85% fill, then stack inner levels bottom-up.
  const size_t fill = std::max<size_t>(2, leaf_capacity_ * 85 / 100);
  std::vector<std::unique_ptr<Node>> level;
  std::vector<Key> level_min_keys;
  for (size_t i = 0; i < data.size(); i += fill) {
    auto leaf = std::make_unique<Node>();
    const size_t end = std::min(data.size(), i + fill);
    leaf->keys.reserve(end - i);
    leaf->values.reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      leaf->keys.push_back(data[j].key);
      leaf->values.push_back(data[j].value);
    }
    level_min_keys.push_back(leaf->keys.front());
    level.push_back(std::move(leaf));
  }

  const size_t inner_fill = std::max<size_t>(2, inner_fanout_ * 85 / 100);
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> parents;
    std::vector<Key> parent_min_keys;
    for (size_t i = 0; i < level.size(); i += inner_fill) {
      auto inner = std::make_unique<Node>();
      inner->is_leaf = false;
      const size_t end = std::min(level.size(), i + inner_fill);
      parent_min_keys.push_back(level_min_keys[i]);
      for (size_t j = i; j < end; ++j) {
        if (j > i) inner->keys.push_back(level_min_keys[j]);
        inner->children.push_back(std::move(level[j]));
      }
      parents.push_back(std::move(inner));
    }
    level = std::move(parents);
    level_min_keys = std::move(parent_min_keys);
  }
  root_ = std::move(level.front());
}

namespace {

// Index of the child covering `key` in an inner node.
size_t ChildIndex(const std::vector<Key>& seps, Key key) {
  return std::upper_bound(seps.begin(), seps.end(), key) - seps.begin();
}

}  // namespace

bool BPlusTree::Lookup(Key key, Value* value) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it == node->keys.end() || *it != key) return false;
  if (value != nullptr) *value = node->values[it - node->keys.begin()];
  return true;
}

BPlusTree::SplitResult BPlusTree::InsertRec(Node* node, Key key, Value value,
                                            bool* inserted) {
  if (node->is_leaf) {
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), key);
    const size_t pos = it - node->keys.begin();
    if (it != node->keys.end() && *it == key) {
      *inserted = false;
      return {};
    }
    node->keys.insert(node->keys.begin() + pos, key);
    node->values.insert(node->values.begin() + pos, value);
    *inserted = true;
    if (node->keys.size() <= leaf_capacity_) return {};
    // Split leaf in half.
    auto right = std::make_unique<Node>();
    const size_t mid = node->keys.size() / 2;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->values.assign(node->values.begin() + mid, node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    return {true, right->keys.front(), std::move(right)};
  }

  const size_t ci = ChildIndex(node->keys, key);
  SplitResult child_split = InsertRec(node->children[ci].get(), key, value,
                                      inserted);
  if (!child_split.split) return {};
  node->keys.insert(node->keys.begin() + ci, child_split.separator);
  node->children.insert(node->children.begin() + ci + 1,
                        std::move(child_split.right));
  if (node->children.size() <= inner_fanout_) return {};
  // Split inner node: middle separator moves up.
  auto right = std::make_unique<Node>();
  right->is_leaf = false;
  const size_t mid_key = node->keys.size() / 2;
  const Key up = node->keys[mid_key];
  right->keys.assign(node->keys.begin() + mid_key + 1, node->keys.end());
  right->children.reserve(node->children.size() - (mid_key + 1));
  for (size_t i = mid_key + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid_key);
  node->children.resize(mid_key + 1);
  return {true, up, std::move(right)};
}

bool BPlusTree::Insert(Key key, Value value) {
  bool inserted = false;
  SplitResult split = InsertRec(root_.get(), key, value, &inserted);
  if (split.split) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->keys.push_back(split.separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.right));
    root_ = std::move(new_root);
  }
  if (inserted) ++size_;
  return inserted;
}

bool BPlusTree::EraseRec(Node* node, Key key, bool* now_empty) {
  if (node->is_leaf) {
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key) return false;
    const size_t pos = it - node->keys.begin();
    node->keys.erase(node->keys.begin() + pos);
    node->values.erase(node->values.begin() + pos);
    *now_empty = node->keys.empty();
    return true;
  }
  const size_t ci = ChildIndex(node->keys, key);
  bool child_empty = false;
  if (!EraseRec(node->children[ci].get(), key, &child_empty)) return false;
  if (child_empty) {
    node->children.erase(node->children.begin() + ci);
    if (ci > 0) {
      node->keys.erase(node->keys.begin() + ci - 1);
    } else if (!node->keys.empty()) {
      node->keys.erase(node->keys.begin());
    }
    *now_empty = node->children.empty();
  }
  return true;
}

bool BPlusTree::Erase(Key key) {
  bool root_empty = false;
  if (!EraseRec(root_.get(), key, &root_empty)) return false;
  --size_;
  if (root_empty) {
    root_ = std::make_unique<Node>();
  } else {
    // Collapse single-child root chains.
    while (!root_->is_leaf && root_->children.size() == 1) {
      root_ = std::move(root_->children.front());
    }
  }
  return true;
}

size_t BPlusTree::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  // Recursive in-order walk over the covering subtrees.
  struct Walker {
    Key lo, hi;
    std::vector<KeyValue>* out;
    size_t count = 0;
    void Walk(const Node* node) {
      if (node->is_leaf) {
        const auto it =
            std::lower_bound(node->keys.begin(), node->keys.end(), lo);
        for (size_t i = it - node->keys.begin();
             i < node->keys.size() && node->keys[i] <= hi; ++i) {
          out->push_back({node->keys[i], node->values[i]});
          ++count;
        }
        return;
      }
      const size_t first =
          std::upper_bound(node->keys.begin(), node->keys.end(), lo) -
          node->keys.begin();
      const size_t last =
          std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
          node->keys.begin();
      for (size_t i = first; i <= last && i < node->children.size(); ++i) {
        Walk(node->children[i].get());
      }
    }
  } walker{lo, hi, out};
  walker.Walk(root_.get());
  return walker.count;
}

template <typename Fn>
void BPlusTree::VisitNodes(const Node* node, int depth, Fn&& fn) {
  fn(node, depth);
  for (const auto& c : node->children) VisitNodes(c.get(), depth + 1, fn);
}

size_t BPlusTree::SizeBytes() const {
  size_t bytes = sizeof(BPlusTree);
  VisitNodes(root_.get(), 1, [&bytes](const Node* node, int) {
    bytes += sizeof(Node) + node->keys.capacity() * sizeof(Key) +
             node->values.capacity() * sizeof(Value) +
             node->children.capacity() * sizeof(void*);
  });
  return bytes;
}

IndexStats BPlusTree::Stats() const {
  // Binary search inside nodes is exact: no model error.
  IndexStatsTally tally;
  VisitNodes(root_.get(), 1, [&tally](const Node* node, int depth) {
    tally.AddNodes();
    if (node->is_leaf) tally.AddLeaf(depth, node->keys.size());
  });
  return tally.Finish();
}

}  // namespace chameleon
