#include "src/core/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/random.h"

namespace chameleon {

ChameleonTrainer::ChameleonTrainer(DareAgent* dare, TsmdpAgent* tsmdp,
                                   TrainerConfig config)
    : dare_(dare), tsmdp_(tsmdp), config_(config) {}

TrainerReport ChameleonTrainer::Train(
    const std::vector<std::vector<Key>>& datasets) {
  TrainerReport report;
  if (datasets.empty()) return report;
  Rng rng(config_.seed);

  double er = 1.0;  // Algorithm 2, line 2
  while (er > config_.epsilon) {  // line 3
    ++report.steps;
    for (int i = 0; i < config_.episodes_per_step; ++i) {  // line 4
      // Line 5: a random dataset from the training corpus.
      const std::vector<Key>& dataset =
          datasets[rng.NextBounded(datasets.size())];
      if (dataset.size() < 2) continue;
      ++report.episodes;

      // h for this dataset (Sec. III-B).
      const int h = std::max(
          2, static_cast<int>(std::ceil(
                 std::log2(static_cast<double>(dataset.size())) / 10.0)));

      // Line 8: a_best via Algorithm 1 (GA over the critic/analytic
      // fitness) — ChooseParams runs the GA and records the experience
      // (state, action, simulated costs) for critic training.
      const DareParams best = dare_->ChooseParams(dataset, h);

      // Lines 7 and 9-12 (random DRF weights; the mixed action
      // a_D = (1 - er)*a_best + er*a_random, its index and its Q_T
      // refinement) are not carried out, so nothing of the mixed action
      // is recorded. Their random draws are still taken, one for the
      // weights, one for the root and one per matrix parameter, so the
      // dataset picks follow the same RNG stream.
      size_t mixed_draws = 2;
      for (const auto& row : best.matrix) mixed_draws += row.size();
      for (size_t d = 0; d < mixed_draws; ++d) (void)rng.NextDouble();

      // Line 13: train TSMDP on the dataset's tree decisions.
      report.final_tsmdp_loss = tsmdp_->Train(
          dataset, dataset.front(), dataset.back() + 1,
          config_.tsmdp_episodes);
    }
    // Line 14: train Q_D on everything recorded so far.
    report.final_critic_mae = dare_->TrainCritic(config_.critic_epochs);
    // Line 15: decrease er.
    er *= config_.er_decay;
  }
  report.final_er = er;
  return report;
}

}  // namespace chameleon
