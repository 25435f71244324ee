#ifndef CHAMELEON_CORE_DARE_H_
#define CHAMELEON_CORE_DARE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/nn/mlp.h"
#include "src/rl/genetic.h"
#include "src/util/common.h"

namespace chameleon {

/// DARE's output (Sec. IV-C): the root fanout p0 plus a fixed-size
/// parameter matrix M(h-2, L) from which every non-root inner fanout of
/// the upper h-1 levels is derived by piecewise-linear interpolation
/// (Eq. 4).
struct DareParams {
  size_t root_fanout = 1;
  // matrix[i][l] = fanout parameter p_{i,l} for level i+2 (linear, not
  // log-space), l in [0, L).
  std::vector<std::vector<float>> matrix;
};

struct DareConfig {
  size_t state_buckets = 256;   // b_D (paper: 16384; scaled default)
  size_t matrix_width = 64;     // L  (paper: 256; scaled default)
  double tau = 0.45;
  double w_time = 0.5;          // DRF weights (can differ per call)
  double w_mem = 0.5;
  size_t fitness_sample = 8192; // keys sampled for fitness simulation
  size_t max_root_fanout_log2 = 20;   // paper: root in [2^0, 2^20]
  size_t max_inner_fanout_log2 = 10;  // paper: inner in [2^0, 2^10]
  size_t target_leaf_keys = 64;
  GaConfig ga;
  /// When true (full Chameleon), the fitness of h-level nodes assumes
  /// TSMDP will refine them optimally (RefinedNodeCost); when false
  /// (ChaDA ablation), they are costed as plain EBH leaves. This is what
  /// lets DARE leave coarser units for TSMDP to fine-tune.
  bool assume_refinement = false;
  /// When true and the critic has been trained, GA fitness comes from
  /// the Q_D network (DRF over its predicted cost components) instead of
  /// the analytic simulation.
  bool use_critic = false;
  uint64_t seed = 33;
};

/// The single-step DARE agent: GA actor (Algorithm 1) + DQN-style critic
/// Q_D with a Dynamic Reward Function r_D = sum_i w_i cost_i over
/// predicted cost components, so changing the (w_time, w_mem) weights
/// needs no retraining (Sec. IV-C, Limitation 3).
class DareAgent {
 public:
  explicit DareAgent(DareConfig config);

  /// Runs Algorithm 1 for the dataset and returns the frame parameters.
  /// `h` is the number of frame levels (root = level 1 ... lock units =
  /// level h); the matrix covers levels 2 .. h-1 (h-2 rows, possibly 0).
  DareParams ChooseParams(std::span<const Key> keys, int h);

  /// Eq. 4: the fanout of a non-root inner node at matrix row `row`
  /// covering [node_lk, node_uk), for a dataset spanning [mk, Mk].
  static size_t InterpolatedFanout(const DareParams& params, size_t row,
                                   Key node_lk, Key node_uk, Key mk, Key Mk,
                                   size_t max_fanout);

  /// Analytic fitness of a genome (negative weighted cost; higher is
  /// better). Public for tests and for critic-training data generation.
  double AnalyticFitness(std::span<const float> genome,
                         std::span<const Key> sample, size_t full_n, int h,
                         double w_time, double w_mem) const;

  /// ChooseParams records are kept in a window of the newest this many,
  /// so an index that reloads or rebuilds for its whole life (a reused
  /// Disk delta) keeps a bounded log. ChameleonTrainer's default run
  /// records 20.
  static constexpr size_t kMaxExperiences = 64;

  /// Trains the critic Q_D on (state, action-summary) -> cost-component
  /// pairs recorded during previous ChooseParams calls (the newest
  /// kMaxExperiences). Returns the mean absolute error on the recorded
  /// set after training.
  float TrainCritic(int epochs);

  size_t recorded_experiences() const { return experiences_.size(); }
  const DareConfig& config() const { return config_; }

 private:
  struct Experience {
    std::vector<float> input;  // state ++ compressed action
    float cost_time;
    float cost_mem;
  };

  /// Simulates the frame on a sample: returns {time_cost, mem_cost}.
  void SimulateFrame(std::span<const float> genome,
                     std::span<const Key> sample, size_t full_n, int h,
                     double* time_cost, double* mem_cost) const;

  std::vector<float> CriticInput(std::span<const float> state,
                                 std::span<const float> genome) const;

  DareConfig config_;
  std::unique_ptr<Mlp> critic_;  // Q_D: input -> {cost_time, cost_mem}
  std::unique_ptr<AdamOptimizer> critic_opt_;
  std::vector<Experience> experiences_;
  bool critic_trained_ = false;
  uint64_t seed_counter_ = 0;
};

}  // namespace chameleon

#endif  // CHAMELEON_CORE_DARE_H_
