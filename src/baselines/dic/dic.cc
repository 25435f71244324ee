#include "src/baselines/dic/dic.h"

#include <algorithm>
#include <cmath>

#include "src/data/skew.h"

namespace chameleon {
namespace {

// Action space of the construction agent.
constexpr int kActionLeafSorted = 0;
constexpr int kActionLeafHash = 1;
constexpr int kActionFanout16 = 2;
constexpr int kActionFanout64 = 3;
constexpr int kActionFanout256 = 4;
constexpr size_t kNumActions = 5;
constexpr size_t kStateBuckets = 16;

size_t FanoutFor(int action) {
  switch (action) {
    case kActionFanout16: return 16;
    case kActionFanout64: return 64;
    case kActionFanout256: return 256;
    default: return 0;
  }
}

}  // namespace

struct DicIndex::Node {
  enum class Kind { kInner, kLeafSorted, kLeafHash };
  Kind kind = Kind::kLeafSorted;
  Key lo = 0, hi = 0;

  // Inner.
  std::vector<std::unique_ptr<Node>> children;

  // Sorted leaf.
  std::vector<KeyValue> sorted;

  // Hash leaf: open addressing, linear probing, power-of-two capacity.
  std::vector<KeyValue> table;
  std::vector<uint8_t> used;
  size_t num_keys = 0;

  size_t ChildIndex(Key key) const {
    const double width = (static_cast<double>(hi) - static_cast<double>(lo)) /
                         static_cast<double>(children.size());
    if (width <= 0.0 || key <= lo) return 0;
    const size_t idx = static_cast<size_t>(
        (static_cast<double>(key) - static_cast<double>(lo)) / width);
    return idx >= children.size() ? children.size() - 1 : idx;
  }
  Key ChildLo(size_t idx) const {
    const double width = (static_cast<double>(hi) - static_cast<double>(lo)) /
                         static_cast<double>(children.size());
    return idx == 0 ? lo : lo + static_cast<Key>(width * idx);
  }
  Key ChildHi(size_t idx) const {
    return idx + 1 == children.size() ? hi : ChildLo(idx + 1);
  }

  static uint64_t Mix(Key k) {
    uint64_t z = k + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  const KeyValue* HashFind(Key key) const {
    if (table.empty()) return nullptr;
    const size_t mask = table.size() - 1;
    size_t pos = Mix(key) & mask;
    while (used[pos]) {
      if (table[pos].key == key) return &table[pos];
      pos = (pos + 1) & mask;
    }
    return nullptr;
  }
};

DicIndex::DicIndex() : DicIndex(Config{}) {}

DicIndex::DicIndex(Config config)
    : SortedRunIndex(/*min_merge=*/4096, /*merge_divisor=*/8),
      config_(config) {
  DqnConfig dqn;
  dqn.state_dim = kStateBuckets + 2;
  dqn.num_actions = kNumActions;
  dqn.hidden = {32, 32};
  dqn.replay_capacity = 2048;
  dqn.seed = config_.seed;
  agent_ = std::make_unique<TreeDqn>(dqn);
}

DicIndex::~DicIndex() = default;

std::unique_ptr<DicIndex::Node> DicIndex::BuildNode(
    std::span<const KeyValue> data, Key lo, Key hi, int depth,
    std::vector<float>* state_out) {
  auto node = std::make_unique<Node>();
  node->lo = lo;
  node->hi = hi;

  // Empty partitions are not decision points: no agent involvement.
  if (data.empty()) {
    node->kind = Node::Kind::kLeafSorted;
    if (state_out != nullptr) {
      *state_out = std::vector<float>(kStateBuckets + 2, 0.0f);
    }
    return node;
  }

  std::vector<Key> keys;
  keys.reserve(data.size());
  for (const KeyValue& kv : data) keys.push_back(kv.key);
  std::vector<float> state = StateVector(keys, kStateBuckets);
  if (state_out != nullptr) *state_out = state;

  int action = agent_->SelectAction(state);
  const bool must_be_leaf =
      data.size() <= config_.leaf_max || depth >= 16 || hi - lo < 2;
  if (must_be_leaf && FanoutFor(action) != 0) {
    action = kActionLeafSorted;
  }
  // Conversely, nodes far above the terminal size must partition: the
  // agent only chooses *which* fanout (invalid terminal choices remap to
  // the widest split).
  if (!must_be_leaf && data.size() > config_.leaf_max * 16 &&
      FanoutFor(action) == 0) {
    action = kActionFanout16;
  }

  TreeTransition t;
  t.state = state;
  t.action = action;

  const size_t fanout = FanoutFor(action);
  if (fanout == 0) {
    // Terminal structure.
    if (action == kActionLeafHash && !data.empty()) {
      node->kind = Node::Kind::kLeafHash;
      size_t cap = 4;
      while (cap < data.size() * 2) cap <<= 1;
      node->table.assign(cap, KeyValue{});
      node->used.assign(cap, 0);
      const size_t mask = cap - 1;
      for (const KeyValue& kv : data) {
        size_t pos = Node::Mix(kv.key) & mask;
        while (node->used[pos]) pos = (pos + 1) & mask;
        node->table[pos] = kv;
        node->used[pos] = 1;
      }
      node->num_keys = data.size();
      // Hash leaves: O(1) probes but 2x memory.
      t.reward = -0.5f * 1.5f - 0.5f * 2.0f;
    } else {
      node->kind = Node::Kind::kLeafSorted;
      node->sorted.assign(data.begin(), data.end());
      node->num_keys = data.size();
      t.reward =
          -0.5f * static_cast<float>(std::log2(
                      std::max<double>(2.0, static_cast<double>(data.size())))) -
          0.5f * 1.0f;
    }
    t.terminal = true;
  } else {
    node->kind = Node::Kind::kInner;
    node->children.resize(fanout);
    t.reward = -0.5f * 1.0f - 0.5f * 0.1f;  // one hop + pointer memory
    size_t begin = 0;
    for (size_t c = 0; c < fanout; ++c) {
      const Key child_hi = node->ChildHi(c);
      size_t end = begin;
      if (c + 1 == fanout) {
        end = data.size();
      } else {
        while (end < data.size() && node->ChildIndex(data[end].key) == c) {
          ++end;
        }
      }
      std::vector<float> child_state;
      node->children[c] =
          BuildNode(data.subspan(begin, end - begin), node->ChildLo(c),
                    child_hi, depth + 1, &child_state);
      // Cap the child states stored per transition: the Eq. 3 target
      // evaluates every stored child with the target network on every
      // replay, so an uncapped 256-way node would dominate training
      // cost. The kept children still carry their true key-share
      // weights (an unbiased subsample of the weighted sum).
      if (!data.empty() && end > begin && t.next_states.size() < 16) {
        t.next_states.push_back(
            {std::move(child_state),
             static_cast<float>(end - begin) /
                 static_cast<float>(data.size())});
      }
      begin = end;
    }
  }

  agent_->AddTransition(std::move(t));
  // Online training fires on substantive nodes; trivial fragments of a
  // wide split would otherwise dominate construction with no learning
  // signal.
  if (data.size() >= config_.leaf_max) {
    for (int s = 0; s < config_.train_steps_per_node; ++s) {
      agent_->TrainStep();
    }
  }
  return node;
}

void DicIndex::BuildModel() {
  const std::vector<KeyValue>& data = run();
  const Key lo = data.empty() ? 0 : data.front().key;
  const Key hi = data.empty() ? 1 : data.back().key + 1;
  root_ = BuildNode(data, lo, hi, 1, nullptr);
}

const KeyValue* DicIndex::FindInRun(Key key) const {
  const Node* node = root_.get();
  if (node == nullptr) return nullptr;
  while (node->kind == Node::Kind::kInner) {
    node = node->children[node->ChildIndex(key)].get();
  }
  if (node->kind == Node::Kind::kLeafHash) return node->HashFind(key);
  auto it = std::lower_bound(node->sorted.begin(), node->sorted.end(), key,
                             [](const KeyValue& kv, Key k) { return kv.key < k; });
  if (it != node->sorted.end() && it->key == key) return &*it;
  return nullptr;
}

template <typename Fn>
void DicIndex::VisitNodes(const Node* node, int depth, Fn&& fn) {
  fn(node, depth);
  for (const auto& c : node->children) VisitNodes(c.get(), depth + 1, fn);
}

size_t DicIndex::SizeBytes() const {
  size_t bytes = sizeof(DicIndex) + RunBytes();
  if (root_ == nullptr) return bytes;
  VisitNodes(root_.get(), 1, [&bytes](const Node* node, int) {
    bytes += sizeof(Node) + node->sorted.capacity() * sizeof(KeyValue) +
             node->table.capacity() * sizeof(KeyValue) +
             node->used.capacity() +
             node->children.capacity() * sizeof(void*);
  });
  return bytes;
}

IndexStats DicIndex::Stats() const {
  // Exact search structures: no model error.
  IndexStatsTally tally;
  if (root_ == nullptr) return tally.Finish();
  VisitNodes(root_.get(), 1, [&tally](const Node* node, int depth) {
    tally.AddNodes();
    if (node->kind != Node::Kind::kInner) {
      tally.AddLeaf(depth, node->num_keys);
    }
  });
  return tally.Finish();
}

}  // namespace chameleon
