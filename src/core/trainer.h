#ifndef CHAMELEON_CORE_TRAINER_H_
#define CHAMELEON_CORE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/dare.h"
#include "src/core/tsmdp.h"
#include "src/util/common.h"

namespace chameleon {

/// Configuration for Algorithm 2 ("Train Chameleon"): the joint offline
/// training loop of the two agents over a collection of datasets.
struct TrainerConfig {
  /// Episodes per exploration step (the inner K loop of Algorithm 2).
  int episodes_per_step = 4;
  /// Exploration probability er starts at 1 and decays multiplicatively
  /// until it reaches epsilon (paper Table IV: epsilon = 1e-3; the
  /// default here is scaled so training terminates quickly — pass the
  /// paper value for full runs).
  double er_decay = 0.5;
  double epsilon = 0.05;
  /// TSMDP training episodes per dataset per step.
  int tsmdp_episodes = 2;
  /// Critic (Q_D) epochs per step.
  int critic_epochs = 50;
  uint64_t seed = 91;
};

/// Result of one training run.
struct TrainerReport {
  int steps = 0;                 // outer while iterations executed
  int episodes = 0;              // total (dataset, weights) episodes
  float final_tsmdp_loss = 0.0f; // MAE of the last TSMDP batch
  float final_critic_mae = 0.0f; // critic error on recorded experiences
  double final_er = 1.0;
};

/// Implements Algorithm 2 in part: repeatedly samples a training
/// dataset, runs DARE's GA on it (which records the GA-optimal action's
/// simulated costs for the Q_D critic), trains TSMDP on the dataset's
/// node decisions, trains the critic, and decays the exploration
/// probability er until it reaches epsilon. The random Dynamic Reward
/// Function weights and the mixed action a_D = (1 - er) * a_best +
/// er * a_random (lines 7 and 9-12) are not carried out.
///
/// `datasets` is the training corpus (the paper uses "a large collection
/// of both real and synthetic datasets"); each entry is a sorted key
/// set. The trained agents can then be moved into a ChameleonIndex (or
/// used via DareConfig::use_critic / PolicySource::kDqn).
class ChameleonTrainer {
 public:
  ChameleonTrainer(DareAgent* dare, TsmdpAgent* tsmdp, TrainerConfig config);

  /// Runs Algorithm 2 over the corpus; returns a summary report.
  TrainerReport Train(const std::vector<std::vector<Key>>& datasets);

 private:
  DareAgent* dare_;
  TsmdpAgent* tsmdp_;
  TrainerConfig config_;
};

}  // namespace chameleon

#endif  // CHAMELEON_CORE_TRAINER_H_
