#include "src/core/dare.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/core/cost_model.h"
#include "src/data/skew.h"

namespace chameleon {
namespace {

// Compressed action fed to the critic: log2 root fanout + the matrix
// downsampled to kActionSummary values per row (mean over stripes).
constexpr size_t kActionSummary = 16;

}  // namespace

DareAgent::DareAgent(DareConfig config) : config_(config) {
  // Critic input: state (b_D + 2) + 1 (root) + kActionSummary.
  const size_t in_dim = config_.state_buckets + 2 + 1 + kActionSummary;
  critic_ = std::make_unique<Mlp>(
      std::vector<size_t>{in_dim, 64, 64, 2}, config_.seed ^ 0xC717);
  critic_opt_ = std::make_unique<AdamOptimizer>(critic_.get(), 1e-3f);
}

size_t DareAgent::InterpolatedFanout(const DareParams& params, size_t row,
                                     Key node_lk, Key node_uk, Key mk, Key Mk,
                                     size_t max_fanout) {
  if (row >= params.matrix.size() || params.matrix[row].empty()) return 1;
  const std::vector<float>& p = params.matrix[row];
  const size_t L = p.size();
  const double mid = (static_cast<double>(node_lk) +
                      static_cast<double>(node_uk)) / 2.0;
  const double span = static_cast<double>(Mk) - static_cast<double>(mk);
  double x = span <= 0.0
                 ? 0.0
                 : (mid - static_cast<double>(mk)) / span *
                       static_cast<double>(L - 1);
  x = std::clamp(x, 0.0, static_cast<double>(L - 1));
  const size_t l = static_cast<size_t>(x);
  const double frac = x - static_cast<double>(l);
  const double p_l = p[l];
  const double p_r = l + 1 < L ? p[l + 1] : p[l];
  // Eq. 4: round((x - l) * p_{l+1} + (l + 1 - x) * p_l).
  const double f = frac * p_r + (1.0 - frac) * p_l;
  const long rounded = std::lround(f);
  if (rounded < 1) return 1;
  return std::min<size_t>(static_cast<size_t>(rounded), max_fanout);
}

void DareAgent::SimulateFrame(std::span<const float> genome,
                              std::span<const Key> sample, size_t full_n,
                              int h, double* time_cost,
                              double* mem_cost) const {
  // Decode the genome: gene 0 = log2 root fanout; the rest are linear
  // fanouts for the matrix.
  DareParams params;
  params.root_fanout = static_cast<size_t>(
      std::lround(std::exp2(static_cast<double>(genome[0]))));
  params.root_fanout = std::max<size_t>(1, params.root_fanout);
  const size_t rows = static_cast<size_t>(std::max(0, h - 2));
  params.matrix.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    params.matrix[r].assign(
        genome.begin() + 1 + r * config_.matrix_width,
        genome.begin() + 1 + (r + 1) * config_.matrix_width);
  }

  const Key mk = sample.front();
  const Key Mk = sample.back();
  const double scale = static_cast<double>(full_n) /
                       static_cast<double>(sample.size());
  const size_t max_inner = size_t{1} << config_.max_inner_fanout_log2;

  // Frame ranges at the current level: (begin, end, lk, uk) over sample.
  struct Range {
    size_t begin, end;
    Key lk, uk;
  };
  std::vector<Range> level = {{0, sample.size(), mk, Mk}};

  double time = 0.0;  // expected hops weighted by key share
  double mem = 0.0;   // slots/key across the whole index

  for (int lvl = 1; lvl < h; ++lvl) {
    std::vector<Range> next;
    for (const Range& r : level) {
      const size_t n = r.end - r.begin;
      size_t fanout;
      if (lvl == 1) {
        fanout = params.root_fanout;
      } else {
        fanout = InterpolatedFanout(params, static_cast<size_t>(lvl - 2),
                                    r.lk, r.uk, mk, Mk, max_inner);
      }
      fanout = std::max<size_t>(1, fanout);
      // Every key under this node pays one hop through it.
      time += kInnerHopTimeCost * static_cast<double>(n) /
              static_cast<double>(sample.size());
      // Children of the last frame level are full units (lock + empty
      // leaf + bookkeeping); upper-level children are plain pointers.
      const double child_mem =
          lvl == h - 1 ? kUnitChildMemSlots : kInnerChildMemCost;
      mem += child_mem * static_cast<double>(fanout) /
             static_cast<double>(full_n);
      if (fanout == 1) {
        next.push_back(r);
        continue;
      }
      // Group the (sorted) sample keys by child index in one pass —
      // iterating all `fanout` children would be O(2^20) per node.
      const double width =
          (static_cast<double>(r.uk) - static_cast<double>(r.lk)) /
          static_cast<double>(fanout);
      auto child_of = [&](Key k) -> size_t {
        if (k <= r.lk) return 0;
        const size_t idx = static_cast<size_t>(
            (static_cast<double>(k) - static_cast<double>(r.lk)) / width);
        return idx >= fanout ? fanout - 1 : idx;
      };
      size_t begin = r.begin;
      while (begin < r.end) {
        const size_t c = child_of(sample[begin]);
        size_t end = begin + 1;
        while (end < r.end && child_of(sample[end]) == c) ++end;
        const Key child_lo =
            c == 0 ? r.lk : r.lk + static_cast<Key>(width * c);
        const Key child_hi =
            c + 1 == fanout ? r.uk
                            : r.lk + static_cast<Key>(width * (c + 1));
        next.push_back({begin, end, child_lo, child_hi});
        begin = end;
      }
    }
    level = std::move(next);
  }

  // The h-th level nodes become EBH leaves (in ChaDA) or TSMDP-refined
  // subtrees; approximate both with the leaf cost of their populations.
  for (const Range& r : level) {
    const size_t n_scaled = static_cast<size_t>(
        std::max(1.0, static_cast<double>(r.end - r.begin) * scale));
    const double share = static_cast<double>(r.end - r.begin) /
                         static_cast<double>(sample.size());
    mem += kUnitExtraMemSlots / static_cast<double>(full_n);
    if (config_.assume_refinement) {
      // Full Chameleon: TSMDP refines below the h-th level, so cost the
      // unit at its post-refinement optimum (time and memory split via
      // the same weights used to combine them downstream).
      time += share * RefinedNodeCost(n_scaled, config_.tau, 1.0, 0.0);
      mem += share * RefinedNodeCost(n_scaled, config_.tau, 0.0, 1.0);
    } else {
      time += share * EbhLeafTimeCost(n_scaled, config_.tau);
      mem += share * EbhLeafMemCost(n_scaled, config_.tau);
    }
  }

  *time_cost = time;
  *mem_cost = mem;
}

double DareAgent::AnalyticFitness(std::span<const float> genome,
                                  std::span<const Key> sample, size_t full_n,
                                  int h, double w_time, double w_mem) const {
  double time = 0.0, mem = 0.0;
  SimulateFrame(genome, sample, full_n, h, &time, &mem);
  return -(w_time * time + w_mem * mem);
}

std::vector<float> DareAgent::CriticInput(std::span<const float> state,
                                          std::span<const float> genome) const {
  std::vector<float> in(state.begin(), state.end());
  in.push_back(genome[0] / 20.0f);  // log2 root fanout, normalized
  // Downsample the matrix genes into kActionSummary stripe means.
  const size_t genes = genome.size() - 1;
  for (size_t s = 0; s < kActionSummary; ++s) {
    if (genes == 0) {
      in.push_back(0.0f);
      continue;
    }
    const size_t b = s * genes / kActionSummary;
    const size_t e = std::max(b + 1, (s + 1) * genes / kActionSummary);
    float mean = 0.0f;
    for (size_t g = b; g < e && g < genes; ++g) mean += genome[1 + g];
    in.push_back(mean / static_cast<float>(e - b) / 1024.0f);
  }
  return in;
}

DareParams DareAgent::ChooseParams(std::span<const Key> keys, int h) {
  assert(!keys.empty());
  // Stride-sample the dataset for fitness simulation.
  std::vector<Key> sample;
  const size_t stride =
      std::max<size_t>(1, keys.size() / config_.fitness_sample);
  for (size_t i = 0; i < keys.size(); i += stride) sample.push_back(keys[i]);
  if (sample.back() != keys.back()) sample.push_back(keys.back());

  const std::vector<float> state = StateVector(keys, config_.state_buckets);

  // Genome bounds: gene 0 in [0, 20] (log2 root fanout); matrix genes in
  // [1, 2^10] (linear fanouts, so Eq. 4 interpolates parameter values).
  std::vector<GeneBounds> bounds;
  bounds.push_back(
      {0.0f, static_cast<float>(config_.max_root_fanout_log2)});
  const size_t rows = static_cast<size_t>(std::max(0, h - 2));
  const float max_inner =
      static_cast<float>(size_t{1} << config_.max_inner_fanout_log2);
  for (size_t g = 0; g < rows * config_.matrix_width; ++g) {
    bounds.push_back({1.0f, max_inner});
  }

  GaConfig ga = config_.ga;
  ga.seed = config_.seed + (++seed_counter_) * 0x9E37;
  GeneticOptimizer optimizer(std::move(bounds), ga);

  const size_t full_n = keys.size();
  auto fitness = [&](std::span<const float> genome) -> double {
    if (config_.use_critic && critic_trained_) {
      const std::vector<float> in = CriticInput(state, genome);
      const std::vector<float> costs = critic_->Forward(in);
      // Dynamic Reward Function: r_D = sum_i w_i * cost_i.
      return -(config_.w_time * costs[0] + config_.w_mem * costs[1]);
    }
    return AnalyticFitness(genome, sample, full_n, h, config_.w_time,
                           config_.w_mem);
  };

  const std::vector<float> best = optimizer.Optimize(fitness);

  // Record the experience for critic training (always with analytic
  // ground-truth costs, regardless of what drove the GA).
  {
    double time = 0.0, mem = 0.0;
    SimulateFrame(best, sample, full_n, h, &time, &mem);
    if (experiences_.size() == kMaxExperiences) {
      experiences_.erase(experiences_.begin());
    }
    experiences_.push_back({CriticInput(state, best),
                            static_cast<float>(time),
                            static_cast<float>(mem)});
  }

  DareParams params;
  params.root_fanout = std::max<size_t>(
      1, static_cast<size_t>(std::lround(std::exp2(best[0]))));
  params.matrix.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    params.matrix[r].assign(
        best.begin() + 1 + r * config_.matrix_width,
        best.begin() + 1 + (r + 1) * config_.matrix_width);
  }
  return params;
}

float DareAgent::TrainCritic(int epochs) {
  if (experiences_.empty()) return 0.0f;
  float mae = 0.0f;
  for (int e = 0; e < epochs; ++e) {
    MlpGradients grads = critic_->ZeroGradients();
    mae = 0.0f;
    for (const Experience& ex : experiences_) {
      MlpCache cache;
      const std::vector<float> out = critic_->Forward(ex.input, &cache);
      const float e0 = out[0] - ex.cost_time;
      const float e1 = out[1] - ex.cost_mem;
      mae += std::abs(e0) + std::abs(e1);
      std::vector<float> grad = {e0 > 0 ? 1.0f : (e0 < 0 ? -1.0f : 0.0f),
                                 e1 > 0 ? 1.0f : (e1 < 0 ? -1.0f : 0.0f)};
      critic_->Backward(cache, grad, &grads);
    }
    critic_opt_->Step(grads, 1.0f / static_cast<float>(experiences_.size()));
  }
  critic_trained_ = true;
  return mae / static_cast<float>(2 * experiences_.size());
}

}  // namespace chameleon
