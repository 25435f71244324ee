#ifndef CHAMELEON_BASELINES_DIC_DIC_H_
#define CHAMELEON_BASELINES_DIC_DIC_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/baselines/common/sorted_run.h"
#include "src/rl/dqn.h"

namespace chameleon {

/// DIC baseline (Wu et al., Data Sci. Eng. 2022): dynamic index
/// construction with deep reinforcement learning — an RL agent picks,
/// node by node, how to combine traditional index structures.
///
/// Per the paper's Table I: top-down construction driven by RL; nodes
/// are either partitions (fanout chosen by the agent) or terminal
/// structures chosen between a sorted array with binary search and a
/// hash table. The agent is a DQN invoked *per node* with online
/// training steps during construction, which is exactly why DIC is the
/// slowest index to build in the paper's Fig. 10.
///
/// DIC targets static workloads (the paper drops it from update
/// experiments); updates here go through the shared delta overlay
/// (api/delta_overlay.h: a B+Tree delta and tombstones over the master
/// run, baselines/common/sorted_run.h), and the whole tree is rebuilt
/// over the merged run once the delta exceeds max(4096, n/8).
class DicIndex final : public SortedRunIndex {
 public:
  struct Config {
    size_t leaf_max = 256;         // below this a terminal node is forced
    int train_steps_per_node = 8;  // online DQN steps per construction node
    uint64_t seed = 99;
  };

  DicIndex();
  explicit DicIndex(Config config);
  ~DicIndex() override;

  DicIndex(const DicIndex&) = delete;
  DicIndex& operator=(const DicIndex&) = delete;

  size_t SizeBytes() const override;
  IndexStats Stats() const override;
  std::string_view Name() const override { return "DIC"; }

 private:
  struct Node;

  std::unique_ptr<Node> BuildNode(std::span<const KeyValue> data, Key lo,
                                  Key hi, int depth,
                                  std::vector<float>* state_out);
  const KeyValue* FindInRun(Key key) const override;
  void BuildModel() override;
  /// Calls fn(node, depth) on every node in pre-order, the root at
  /// depth 1: the one full-tree walk behind SizeBytes() and Stats().
  template <typename Fn>
  static void VisitNodes(const Node* node, int depth, Fn&& fn);

  Config config_;
  std::unique_ptr<TreeDqn> agent_;
  std::unique_ptr<Node> root_;
};

}  // namespace chameleon

#endif  // CHAMELEON_BASELINES_DIC_DIC_H_
