#include "src/baselines/lipp/lipp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/baselines/common/line_fit.h"

namespace chameleon {

struct LippIndex::Node {
  enum class SlotTag : uint8_t { kEmpty, kData, kChild };

  struct Slot {
    SlotTag tag = SlotTag::kEmpty;
    KeyValue kv;                   // valid when tag == kData
    std::unique_ptr<Node> child;   // valid when tag == kChild
  };

  std::vector<Slot> slots;
  // Linear model: slot ~ slope * (key - base) + intercept.
  double slope = 0.0;
  double intercept = 0.0;
  Key base = 0;
  size_t num_keys = 0;        // records in this subtree
  size_t built_keys = 0;      // records at build time (rebuild trigger)
  size_t inserts_since_build = 0;

  size_t Predict(Key key) const {
    const double p =
        slope * (static_cast<double>(key) - static_cast<double>(base)) +
        intercept;
    if (p <= 0.0) return 0;
    // Clamp in double space: converting an out-of-range double to an
    // integer is undefined behaviour.
    if (p >= static_cast<double>(slots.size())) return slots.size() - 1;
    return static_cast<size_t>(p);
  }
};

LippIndex::LippIndex() : LippIndex(Config{}) {}

LippIndex::LippIndex(Config config) : config_(config) {
  root_ = BuildNode({}, 1);
}

LippIndex::~LippIndex() = default;

std::unique_ptr<LippIndex::Node> LippIndex::BuildNode(
    std::span<const KeyValue> data, int depth) {
  auto node = std::make_unique<Node>();
  const size_t n = data.size();
  const size_t cap = std::max(
      config_.min_capacity,
      static_cast<size_t>(static_cast<double>(n) * config_.slot_expansion));
  node->slots.resize(cap);
  node->num_keys = n;
  node->built_keys = n;
  if (n == 0) return node;

  node->base = data.front().key;
  if (n >= 2) {
    // Least-squares fit of rank -> slot, scaled to the slot capacity.
    const Line line = FitLine(data, node->base,
                              static_cast<double>(cap - 1) /
                                  static_cast<double>(n - 1));
    node->slope = line.slope;
    node->intercept = line.intercept;
  }

  // Group consecutive keys by predicted slot; conflicts become children.
  size_t i = 0;
  while (i < n) {
    const size_t slot = node->Predict(data[i].key);
    size_t j = i + 1;
    while (j < n && node->Predict(data[j].key) == slot) ++j;
    Node::Slot& s = node->slots[slot];
    if (j - i == 1) {
      s.tag = Node::SlotTag::kData;
      s.kv = data[i];
    } else {
      s.tag = Node::SlotTag::kChild;
      s.child = BuildNode(data.subspan(i, j - i), depth + 1);
    }
    i = j;
  }
  return node;
}

void LippIndex::BulkLoad(std::span<const KeyValue> data) {
  size_ = data.size();
  root_ = BuildNode(data, 1);
}

bool LippIndex::Lookup(Key key, Value* value) const {
  const Node* node = root_.get();
  while (true) {
    const Node::Slot& s = node->slots[node->Predict(key)];
    switch (s.tag) {
      case Node::SlotTag::kEmpty:
        return false;
      case Node::SlotTag::kData:
        if (s.kv.key != key) return false;
        if (value != nullptr) *value = s.kv.value;
        return true;
      case Node::SlotTag::kChild:
        node = s.child.get();
        break;
    }
  }
}

void LippIndex::Collect(const Node* node, std::vector<KeyValue>* out) const {
  for (const Node::Slot& s : node->slots) {
    switch (s.tag) {
      case Node::SlotTag::kEmpty:
        break;
      case Node::SlotTag::kData:
        out->push_back(s.kv);
        break;
      case Node::SlotTag::kChild:
        Collect(s.child.get(), out);
        break;
    }
  }
}

bool LippIndex::Insert(Key key, Value value) {
  // Descend, tracking the path so subtree counters can be updated and a
  // rebuild candidate found.
  struct PathEntry {
    Node* node;
    size_t slot;
  };
  std::vector<PathEntry> path;
  Node* node = root_.get();
  while (true) {
    const size_t slot_idx = node->Predict(key);
    path.push_back({node, slot_idx});
    Node::Slot& s = node->slots[slot_idx];
    if (s.tag == Node::SlotTag::kEmpty) {
      s.tag = Node::SlotTag::kData;
      s.kv = {key, value};
      break;
    }
    if (s.tag == Node::SlotTag::kData) {
      if (s.kv.key == key) return false;  // duplicate
      // Conflict: push both records into a fresh child (downward split).
      KeyValue pair[2];
      if (s.kv.key < key) {
        pair[0] = s.kv;
        pair[1] = {key, value};
      } else {
        pair[0] = {key, value};
        pair[1] = s.kv;
      }
      s.child = BuildNode(std::span<const KeyValue>(pair, 2),
                          static_cast<int>(path.size()) + 1);
      s.tag = Node::SlotTag::kChild;
      s.kv = KeyValue{};
      break;
    }
    node = s.child.get();
  }

  ++size_;
  for (PathEntry& e : path) {
    ++e.node->num_keys;
    ++e.node->inserts_since_build;
  }

  // Adjustment: rebuild the highest subtree whose insert volume exceeded
  // the threshold (skip the root — a full rebuild there would be the
  // "complete reconstruction" case the paper discusses separately).
  for (size_t pi = 1; pi < path.size(); ++pi) {
    Node* cand = path[pi].node;
    if (cand->inserts_since_build >
        config_.rebuild_factor * static_cast<double>(cand->built_keys) +
            16.0) {
      std::vector<KeyValue> pairs;
      pairs.reserve(cand->num_keys);
      Collect(cand, &pairs);
      std::sort(pairs.begin(), pairs.end());
      std::unique_ptr<Node> rebuilt =
          BuildNode(pairs, static_cast<int>(pi) + 1);
      Node* parent = path[pi - 1].node;
      parent->slots[path[pi - 1].slot].child = std::move(rebuilt);
      break;
    }
  }
  return true;
}

bool LippIndex::Erase(Key key) {
  Node* node = root_.get();
  while (true) {
    Node::Slot& s = node->slots[node->Predict(key)];
    if (s.tag == Node::SlotTag::kEmpty) return false;
    if (s.tag == Node::SlotTag::kData) {
      if (s.kv.key != key) return false;
      s.tag = Node::SlotTag::kEmpty;
      s.kv = KeyValue{};
      --size_;
      // num_keys counters along the path become approximate after
      // deletes; they only gate rebuilds, so staleness is benign.
      return true;
    }
    node = s.child.get();
  }
}

size_t LippIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  // Slots are ordered by the monotone model, so an in-order walk yields
  // sorted output, and only slots in [Predict(lo), Predict(hi)] can hold
  // keys in [lo, hi] — bounding the walk to the covering slot range.
  struct Walker {
    Key lo, hi;
    std::vector<KeyValue>* out;
    size_t count = 0;
    void Walk(const Node* node) {
      const size_t first = node->Predict(lo);
      const size_t last = node->Predict(hi);
      for (size_t i = first; i <= last && i < node->slots.size(); ++i) {
        const Node::Slot& s = node->slots[i];
        switch (s.tag) {
          case Node::SlotTag::kEmpty:
            break;
          case Node::SlotTag::kData:
            if (s.kv.key >= lo && s.kv.key <= hi) {
              out->push_back(s.kv);
              ++count;
            }
            break;
          case Node::SlotTag::kChild:
            Walk(s.child.get());
            break;
        }
      }
    }
  } walker{lo, hi, out};
  walker.Walk(root_.get());
  // The model is fit with least squares, which is monotone in key but
  // collisions grouped into children keep order; still, sort defensively
  // to honor the interface contract.
  std::sort(out->end() - walker.count, out->end());
  return walker.count;
}

template <typename Fn>
void LippIndex::VisitNodes(const Node* node, int depth, Fn&& fn) {
  fn(node, depth);
  for (const Node::Slot& s : node->slots) {
    if (s.tag == Node::SlotTag::kChild) {
      VisitNodes(s.child.get(), depth + 1, fn);
    }
  }
}

size_t LippIndex::SizeBytes() const {
  size_t bytes = sizeof(LippIndex);
  VisitNodes(root_.get(), 1, [&bytes](const Node* node, int) {
    bytes += sizeof(Node) + node->slots.capacity() * sizeof(Node::Slot);
  });
  return bytes;
}

IndexStats LippIndex::Stats() const {
  // Every node holds keys in its data slots, at precise positions: zero
  // model error by construction.
  IndexStatsTally tally;
  VisitNodes(root_.get(), 1, [&tally](const Node* node, int depth) {
    tally.AddNodes();
    tally.AddLeaf(depth, static_cast<size_t>(std::count_if(
                             node->slots.begin(), node->slots.end(),
                             [](const Node::Slot& s) {
                               return s.tag == Node::SlotTag::kData;
                             })));
  });
  return tally.Finish();
}

}  // namespace chameleon
