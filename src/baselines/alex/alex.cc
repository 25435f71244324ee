#include "src/baselines/alex/alex.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/baselines/common/line_fit.h"
#include "src/obs/stats.h"

namespace chameleon {

// --- Node definitions -------------------------------------------------------

struct AlexIndex::Node {
  bool is_leaf;
  Key lo, hi;  // covered key interval [lo, hi]
  virtual ~Node() = default;

 protected:
  Node(bool leaf, Key l, Key h) : is_leaf(leaf), lo(l), hi(h) {}
};

struct AlexIndex::DataNode final : Node {
  DataNode(Key l, Key h) : Node(true, l, h) {}

  // Non-decreasing slot array: occupied slots hold their own key; gap
  // slots duplicate the nearest occupied key to their right (kMaxKey
  // past the last occupied slot), so exponential/binary search works on
  // the raw array.
  std::vector<Key> slots;
  std::vector<Value> values;
  std::vector<uint8_t> occupied;
  size_t num_keys = 0;
  // Linear model: slot ~ slope * (key - lo) + intercept.
  double slope = 0.0;
  double intercept = 0.0;

  size_t capacity() const { return slots.size(); }

  size_t Predict(Key key) const {
    const double p =
        slope * (static_cast<double>(key) - static_cast<double>(lo)) +
        intercept;
    if (p <= 0.0) return 0;
    if (p >= static_cast<double>(capacity())) return capacity() - 1;
    return static_cast<size_t>(p);
  }

  /// First slot index with slots[i] >= key, found by exponential search
  /// outward from the model prediction (ALEX's search strategy).
  size_t LowerBound(Key key) const {
    const size_t cap = capacity();
    if (cap == 0) return 0;
    size_t pos = Predict(key);
    size_t lo_b, hi_b;
    if (slots[pos] >= key) {
      // Grow left until slots[lo_b] < key (or 0).
      size_t step = 1;
      lo_b = pos;
      while (lo_b > 0 && slots[lo_b] >= key) {
        lo_b = step > lo_b ? 0 : lo_b - step;
        step <<= 1;
      }
      hi_b = pos + 1;
    } else {
      size_t step = 1;
      hi_b = pos + 1;
      while (hi_b < cap && slots[hi_b] < key) {
        hi_b = std::min(cap, hi_b + step);
        step <<= 1;
      }
      lo_b = pos;
      hi_b = std::min(cap, hi_b + 1);
    }
    return std::lower_bound(slots.begin() + lo_b, slots.begin() + hi_b, key) -
           slots.begin();
  }
};

struct AlexIndex::InnerNode final : Node {
  InnerNode(Key l, Key h) : Node(false, l, h) {}

  std::vector<std::unique_ptr<Node>> children;
  // Non-empty => explicit partition (used by median splits); child i
  // covers [boundaries[i-1], boundaries[i]). Empty => equi-width linear
  // partition of [lo, hi] (ALEX's O(1) model-based child selection).
  std::vector<Key> boundaries;

  size_t ChildIndex(Key key) const {
    if (!boundaries.empty()) {
      return std::upper_bound(boundaries.begin(), boundaries.end(), key) -
             boundaries.begin();
    }
    const double width =
        (static_cast<double>(hi) - static_cast<double>(lo)) /
        static_cast<double>(children.size());
    if (width <= 0.0 || key <= lo) return 0;
    const size_t idx = static_cast<size_t>(
        (static_cast<double>(key) - static_cast<double>(lo)) / width);
    return idx >= children.size() ? children.size() - 1 : idx;
  }

  Key ChildLo(size_t idx) const {
    if (!boundaries.empty()) return idx == 0 ? lo : boundaries[idx - 1];
    const double width =
        (static_cast<double>(hi) - static_cast<double>(lo)) /
        static_cast<double>(children.size());
    return idx == 0 ? lo : lo + static_cast<Key>(width * idx);
  }
  Key ChildHi(size_t idx) const {
    if (!boundaries.empty()) {
      return idx + 1 == children.size() ? hi : boundaries[idx];
    }
    return idx + 1 == children.size() ? hi : ChildLo(idx + 1);
  }
};

// --- Construction -----------------------------------------------------------

AlexIndex::AlexIndex() : AlexIndex(Config{}) {}

AlexIndex::AlexIndex(Config config) : config_(config) { BulkLoad({}); }

AlexIndex::~AlexIndex() = default;

std::unique_ptr<AlexIndex::DataNode> AlexIndex::BuildDataNode(
    std::span<const KeyValue> data, Key lo, Key hi) {
  auto node = std::make_unique<DataNode>(lo, hi);
  const size_t n = data.size();
  const size_t cap = std::max<size_t>(
      16, static_cast<size_t>(static_cast<double>(n) / config_.density) + 1);
  node->slots.assign(cap, kMaxKey);
  node->values.assign(cap, 0);
  node->occupied.assign(cap, 0);
  node->num_keys = n;
  if (n == 0) return node;

  // Least-squares fit of slot ~ key over (key_i, i * cap / n).
  if (n >= 2) {
    const Line line = FitLine(data, lo, static_cast<double>(cap - 1) /
                                            static_cast<double>(n - 1));
    node->slope = line.slope;
    node->intercept = line.intercept;
  }

  // Model-based placement: each key goes to its predicted slot, pushed
  // right past already-placed keys, with enough room reserved for the
  // remaining keys.
  size_t next_free = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = std::max(node->Predict(data[i].key), next_free);
    const size_t remaining = n - i;
    if (pos > cap - remaining) pos = cap - remaining;
    node->slots[pos] = data[i].key;
    node->values[pos] = data[i].value;
    node->occupied[pos] = 1;
    next_free = pos + 1;
  }
  // Fill gaps with right-neighbor duplicates.
  Key cur = kMaxKey;
  for (size_t i = cap; i-- > 0;) {
    if (node->occupied[i]) {
      cur = node->slots[i];
    } else {
      node->slots[i] = cur;
    }
  }
  return node;
}

std::unique_ptr<AlexIndex::Node> AlexIndex::BuildSubtree(
    std::span<const KeyValue> data, Key lo, Key hi, int depth) {
  if (data.size() <= config_.target_leaf_keys * 2 || depth >= 32 ||
      hi - lo < 2) {
    return BuildDataNode(data, lo, hi);
  }
  size_t fanout = 2;
  while (fanout < 1024 &&
         fanout * config_.target_leaf_keys < data.size()) {
    fanout <<= 1;
  }
  auto inner = std::make_unique<InnerNode>(lo, hi);
  inner->children.resize(fanout);

  // Partition keys by the exact query-time child function so build and
  // lookup can never disagree about a boundary key.
  size_t begin = 0;
  bool degenerate = false;
  std::vector<std::pair<size_t, size_t>> ranges(fanout);
  for (size_t c = 0; c < fanout; ++c) {
    size_t end = begin;
    if (c + 1 == fanout) {
      end = data.size();
    } else {
      while (end < data.size() && inner->ChildIndex(data[end].key) == c) {
        ++end;
      }
    }
    ranges[c] = {begin, end};
    if (end - begin == data.size()) degenerate = true;
    begin = end;
  }
  if (degenerate) {
    // All keys fell into one child: equi-width partitioning makes no
    // progress (extreme local skew); fall back to a large data node that
    // will split on demand.
    return BuildDataNode(data, lo, hi);
  }
  for (size_t c = 0; c < fanout; ++c) {
    const auto [b, e] = ranges[c];
    inner->children[c] = BuildSubtree(data.subspan(b, e - b),
                                      inner->ChildLo(c), inner->ChildHi(c),
                                      depth + 1);
  }
  return inner;
}

void AlexIndex::BulkLoad(std::span<const KeyValue> data) {
  size_ = data.size();
  total_shifts_ = 0;
  if (data.empty()) {
    // One empty leaf over the whole key domain.
    auto leaf = std::make_unique<DataNode>(kMinKey, kMaxKey);
    leaf->slots.assign(16, kMaxKey);
    leaf->values.assign(16, 0);
    leaf->occupied.assign(16, 0);
    root_ = std::move(leaf);
    return;
  }
  // Root model space spans the loaded keys, not the whole uint64 domain
  // (equi-width partitions of the full domain would put every key into
  // one child). Out-of-range keys clamp to the edge children.
  root_ = BuildSubtree(data, data.front().key, data.back().key + 1, 1);
}

// --- Queries ----------------------------------------------------------------

AlexIndex::DataNode* AlexIndex::FindLeaf(Key key) const {
  Node* node = root_.get();
  while (!node->is_leaf) {
    auto* inner = static_cast<InnerNode*>(node);
    node = inner->children[inner->ChildIndex(key)].get();
  }
  return static_cast<DataNode*>(node);
}

bool AlexIndex::Lookup(Key key, Value* value) const {
  const DataNode* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  const size_t cap = leaf->capacity();
  // Skip the gap prefix of an equal-key run; the occupied slot (if the
  // key exists) terminates the run.
  while (idx < cap && leaf->slots[idx] == key && !leaf->occupied[idx]) ++idx;
  if (idx < cap && leaf->slots[idx] == key && leaf->occupied[idx]) {
    if (value != nullptr) *value = leaf->values[idx];
    return true;
  }
  return false;
}

// --- Insert -----------------------------------------------------------------

bool AlexIndex::Insert(Key key, Value value) {
  while (true) {
    // Descend, remembering the parent for splits.
    InnerNode* parent = nullptr;
    size_t child_idx = 0;
    Node* node = root_.get();
    while (!node->is_leaf) {
      auto* inner = static_cast<InnerNode*>(node);
      parent = inner;
      child_idx = inner->ChildIndex(key);
      node = inner->children[child_idx].get();
    }
    auto* leaf = static_cast<DataNode*>(node);

    // Duplicate check.
    {
      size_t idx = leaf->LowerBound(key);
      const size_t cap = leaf->capacity();
      while (idx < cap && leaf->slots[idx] == key && !leaf->occupied[idx]) {
        ++idx;
      }
      if (idx < cap && leaf->slots[idx] == key && leaf->occupied[idx]) {
        return false;
      }
    }

    // Structural maintenance before inserting.
    if (leaf->num_keys + 1 >
        static_cast<size_t>(config_.expansion_threshold *
                            static_cast<double>(leaf->capacity()))) {
      if (leaf->num_keys >= config_.max_leaf_keys && leaf->num_keys >= 2) {
        SplitLeaf(parent, child_idx);
        continue;  // re-descend into the new structure
      }
      // Expand & retrain in place.
      std::vector<KeyValue> pairs = CollectPairs(*leaf);
      std::unique_ptr<DataNode> rebuilt =
          BuildDataNode(pairs, leaf->lo, leaf->hi);
      leaf->slots = std::move(rebuilt->slots);
      leaf->values = std::move(rebuilt->values);
      leaf->occupied = std::move(rebuilt->occupied);
      leaf->num_keys = rebuilt->num_keys;
      leaf->slope = rebuilt->slope;
      leaf->intercept = rebuilt->intercept;
    }

    const size_t cap = leaf->capacity();
    size_t idx = leaf->LowerBound(key);
    size_t insert_pos;
    if (idx < cap && !leaf->occupied[idx]) {
      insert_pos = idx;  // landed on a gap: free placement
    } else if (idx >= cap) {
      // Key greater than everything stored: shift left into a gap.
      size_t g = cap;  // find last gap
      for (size_t j = cap; j-- > 0;) {
        if (!leaf->occupied[j]) {
          g = j;
          break;
        }
      }
      assert(g < cap);
      for (size_t j = g; j + 1 < cap; ++j) {
        leaf->slots[j] = leaf->slots[j + 1];
        leaf->values[j] = leaf->values[j + 1];
        leaf->occupied[j] = leaf->occupied[j + 1];
      }
      total_shifts_ += cap - 1 - g;
      insert_pos = cap - 1;
    } else {
      // Occupied slot with slots[idx] > key: shift toward nearest gap.
      size_t gap_right = cap, gap_left = cap;
      for (size_t j = idx + 1; j < cap; ++j) {
        if (!leaf->occupied[j]) {
          gap_right = j;
          break;
        }
      }
      for (size_t j = idx; j-- > 0;) {
        if (!leaf->occupied[j]) {
          gap_left = j;
          break;
        }
      }
      const size_t dist_right = gap_right == cap ? cap : gap_right - idx;
      const size_t dist_left = gap_left == cap ? cap : idx - gap_left;
      if (dist_right <= dist_left) {
        for (size_t j = gap_right; j > idx; --j) {
          leaf->slots[j] = leaf->slots[j - 1];
          leaf->values[j] = leaf->values[j - 1];
          leaf->occupied[j] = leaf->occupied[j - 1];
        }
        total_shifts_ += dist_right;
        insert_pos = idx;
      } else {
        for (size_t j = gap_left; j + 1 < idx; ++j) {
          leaf->slots[j] = leaf->slots[j + 1];
          leaf->values[j] = leaf->values[j + 1];
          leaf->occupied[j] = leaf->occupied[j + 1];
        }
        total_shifts_ += dist_left;
        insert_pos = idx - 1;
      }
    }

    leaf->slots[insert_pos] = key;
    leaf->values[insert_pos] = value;
    leaf->occupied[insert_pos] = 1;
    ++leaf->num_keys;
    // Gaps to the left of the new key now duplicate it.
    for (size_t j = insert_pos; j-- > 0;) {
      if (leaf->occupied[j]) break;
      leaf->slots[j] = key;
    }
    ++size_;
    return true;
  }
}

std::vector<KeyValue> AlexIndex::CollectPairs(const DataNode& leaf) {
  std::vector<KeyValue> pairs;
  pairs.reserve(leaf.num_keys);
  for (size_t i = 0; i < leaf.capacity(); ++i) {
    if (leaf.occupied[i]) pairs.push_back({leaf.slots[i], leaf.values[i]});
  }
  return pairs;
}

void AlexIndex::SplitLeaf(InnerNode* parent, size_t child_idx) {
  CHAMELEON_STAT_INC(kNodeSplits);
  DataNode* leaf =
      parent == nullptr
          ? static_cast<DataNode*>(root_.get())
          : static_cast<DataNode*>(parent->children[child_idx].get());
  std::vector<KeyValue> pairs = CollectPairs(*leaf);
  assert(pairs.size() >= 2);

  // Split at the median key (guarantees progress even under extreme
  // skew, where a model-space midpoint could leave one side empty).
  const Key median = pairs[pairs.size() / 2].key;
  const size_t split_at =
      std::lower_bound(pairs.begin(), pairs.end(), median,
                       [](const KeyValue& kv, Key k) { return kv.key < k; }) -
      pairs.begin();

  auto replacement = std::make_unique<InnerNode>(leaf->lo, leaf->hi);
  replacement->children.resize(2);
  // Note: the 2-way inner node partitions by median via explicit ranges,
  // not equi-width — store the ranges implicitly by using median as hi/lo.
  auto left = BuildDataNode(
      std::span<const KeyValue>(pairs.data(), split_at), leaf->lo, median);
  auto right = BuildDataNode(
      std::span<const KeyValue>(pairs.data() + split_at,
                                pairs.size() - split_at),
      median, leaf->hi);
  replacement->children[0] = std::move(left);
  replacement->children[1] = std::move(right);
  replacement->boundaries = {median};

  if (parent == nullptr) {
    root_ = std::move(replacement);
  } else {
    parent->children[child_idx] = std::move(replacement);
  }
}

// --- Erase ------------------------------------------------------------------

bool AlexIndex::Erase(Key key) {
  DataNode* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  const size_t cap = leaf->capacity();
  while (idx < cap && leaf->slots[idx] == key && !leaf->occupied[idx]) ++idx;
  if (idx >= cap || leaf->slots[idx] != key || !leaf->occupied[idx]) {
    return false;
  }
  leaf->occupied[idx] = 0;
  leaf->values[idx] = 0;
  --leaf->num_keys;
  --size_;
  // Restore gap duplicates: this slot and gaps left of it duplicate the
  // nearest occupied key to the right.
  const Key dup = idx + 1 < cap ? leaf->slots[idx + 1] : kMaxKey;
  for (size_t j = idx + 1; j-- > 0;) {
    if (leaf->occupied[j]) break;
    leaf->slots[j] = dup;
  }
  return true;
}

// --- Scans / stats ----------------------------------------------------------

size_t AlexIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  struct Walker {
    Key lo, hi;
    std::vector<KeyValue>* out;
    size_t count = 0;
    void Walk(const Node* node) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const DataNode*>(node);
        size_t idx = leaf->LowerBound(lo);
        for (; idx < leaf->capacity() && leaf->slots[idx] <= hi; ++idx) {
          if (leaf->occupied[idx]) {
            out->push_back({leaf->slots[idx], leaf->values[idx]});
            ++count;
          }
        }
        return;
      }
      const auto* inner = static_cast<const InnerNode*>(node);
      const size_t first = inner->ChildIndex(lo);
      const size_t last = inner->ChildIndex(hi);
      for (size_t i = first; i <= last; ++i) {
        Walk(inner->children[i].get());
      }
    }
  } walker{lo, hi, out};
  walker.Walk(root_.get());
  return walker.count;
}

size_t AlexIndex::SizeBytes() const {
  struct Sizer {
    size_t bytes = 0;
    void Walk(const Node* node) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const DataNode*>(node);
        bytes += sizeof(DataNode) +
                 leaf->slots.capacity() * sizeof(Key) +
                 leaf->values.capacity() * sizeof(Value) +
                 leaf->occupied.capacity();
        return;
      }
      const auto* inner = static_cast<const InnerNode*>(node);
      bytes += sizeof(InnerNode) + inner->children.capacity() * sizeof(void*);
      for (const auto& c : inner->children) Walk(c.get());
    }
  } sizer;
  sizer.Walk(root_.get());
  return sizer.bytes + sizeof(AlexIndex);
}

IndexStats AlexIndex::Stats() const {
  struct Walker {
    size_t nodes = 0;
    int max_depth = 0;
    double weighted_depth = 0.0;
    double max_error = 0.0;
    double error_sum = 0.0;
    size_t keys = 0;
    void Walk(const Node* node, int depth) {
      ++nodes;
      if (node->is_leaf) {
        const auto* leaf = static_cast<const DataNode*>(node);
        max_depth = std::max(max_depth, depth);
        weighted_depth +=
            static_cast<double>(leaf->num_keys) * static_cast<double>(depth);
        keys += leaf->num_keys;
        for (size_t i = 0; i < leaf->capacity(); ++i) {
          if (!leaf->occupied[i]) continue;
          const double err = std::abs(
              static_cast<double>(leaf->Predict(leaf->slots[i])) -
              static_cast<double>(i));
          max_error = std::max(max_error, err);
          error_sum += err;
        }
        return;
      }
      const auto* inner = static_cast<const InnerNode*>(node);
      for (const auto& c : inner->children) Walk(c.get(), depth + 1);
    }
  } walker;
  walker.Walk(root_.get(), 1);
  IndexStats stats;
  stats.num_nodes = walker.nodes;
  stats.max_height = walker.max_depth;
  stats.avg_height =
      walker.keys > 0 ? walker.weighted_depth / walker.keys : walker.max_depth;
  stats.max_error = walker.max_error;
  stats.avg_error = walker.keys > 0 ? walker.error_sum / walker.keys : 0.0;
  return stats;
}

}  // namespace chameleon
