// Tests for the DARE agent (Sec. IV-C): Eq. 4 interpolation, the GA
// actor over the frame-parameter genome, and the Q_D critic with the
// Dynamic Reward Function.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dare.h"
#include "src/data/dataset.h"

namespace chameleon {
namespace {

TEST(DareInterpolationTest, PaperWorkedExample) {
  // Fig. 6 / Sec. IV-C: h = 3, L = 4, mk = 0, Mk = 3. Node N10 covers
  // [0, 1], so x = ((0+1)/2 - 0) / (3-0) * (4-1) = 0.5, l = 0, and with
  // p_{0,0} = 5.1, p_{0,1} = 1.3:
  //   f = round((0.5-0)*1.3 + (1-0.5)*5.1) = round(3.2) = 3.
  DareParams params;
  params.root_fanout = 3;
  params.matrix = {{5.1f, 1.3f, 2.0f, 4.0f}};
  EXPECT_EQ(DareAgent::InterpolatedFanout(params, 0, 0, 1, 0, 3, 1024), 3u);
}

TEST(DareInterpolationTest, ClampsAndEdges) {
  DareParams params;
  params.matrix = {{8.0f, 16.0f}};
  // Node at the far left: x = 0 -> p[0].
  EXPECT_EQ(DareAgent::InterpolatedFanout(params, 0, 0, 0, 0, 100, 1024), 8u);
  // Node covering everything: x = 0.5 -> midpoint = 12.
  EXPECT_EQ(DareAgent::InterpolatedFanout(params, 0, 0, 100, 0, 100, 1024),
            12u);
  // Fanout is clamped to max_fanout.
  params.matrix = {{4096.0f, 4096.0f}};
  EXPECT_EQ(DareAgent::InterpolatedFanout(params, 0, 0, 100, 0, 100, 1024),
            1024u);
  // Missing row => fanout 1 (leaf passthrough).
  EXPECT_EQ(DareAgent::InterpolatedFanout(params, 5, 0, 100, 0, 100, 1024),
            1u);
}

DareConfig SmallConfig() {
  DareConfig config;
  config.state_buckets = 32;
  config.matrix_width = 16;
  config.fitness_sample = 2'000;
  config.ga.population = 12;
  config.ga.generations = 10;
  return config;
}

TEST(DareAgentTest, ChooseParamsReturnsValidShapes) {
  DareAgent agent(SmallConfig());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kOsmc, 50'000, 7);
  const DareParams p2 = agent.ChooseParams(keys, /*h=*/2);
  EXPECT_GE(p2.root_fanout, 1u);
  EXPECT_LE(p2.root_fanout, size_t{1} << 20);
  EXPECT_TRUE(p2.matrix.empty());  // h-2 = 0 rows

  const DareParams p3 = agent.ChooseParams(keys, /*h=*/3);
  ASSERT_EQ(p3.matrix.size(), 1u);
  EXPECT_EQ(p3.matrix[0].size(), 16u);
  for (float v : p3.matrix[0]) {
    EXPECT_GE(v, 1.0f);
    EXPECT_LE(v, 1024.0f);
  }
}

// What DARE computes for one (dataset, h, refinement mode) case: the
// chosen root fanout, an FNV-1a digest of the chosen matrix's float bit
// patterns, and the bit patterns of AnalyticFitness for three fixed
// genomes.
struct DareGolden {
  DatasetKind kind;
  int h;
  bool assume_refinement;
  size_t root_fanout;
  uint64_t matrix_digest;
  uint64_t fitness_bits[3];
};

uint64_t MatrixDigest(const DareParams& params) {
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const std::vector<float>& row : params.matrix) {
    for (float v : row) {
      digest ^= std::bit_cast<uint32_t>(v);
      digest *= 0x100000001b3ull;
    }
  }
  return digest;
}

DareGolden ComputeGolden(DatasetKind kind, int h, bool assume_refinement) {
  DareConfig config = SmallConfig();
  config.assume_refinement = assume_refinement;
  const std::vector<Key> keys = GenerateDataset(kind, 50'000, 5);
  DareGolden got{kind, h, assume_refinement, 0, 0, {}};
  {
    DareAgent agent(config);
    const DareParams params = agent.ChooseParams(keys, h);
    got.root_fanout = params.root_fanout;
    got.matrix_digest = MatrixDigest(params);
  }
  // A stride sample scored against the full count, as ChooseParams does.
  std::vector<Key> sample;
  for (size_t i = 0; i < keys.size(); i += 25) sample.push_back(keys[i]);
  const DareAgent agent(config);
  const size_t genes = 1 + static_cast<size_t>(h - 2) * config.matrix_width;
  for (int g = 0; g < 3; ++g) {
    std::vector<float> genome(genes);
    genome[0] = 3.0f + 4.5f * static_cast<float>(g);  // log2 root fanout
    for (size_t j = 1; j < genes; ++j) {
      genome[j] = 1.0f + static_cast<float>((g + 1) * 37 * j % 1024);
    }
    got.fitness_bits[g] = std::bit_cast<uint64_t>(agent.AnalyticFitness(
        genome, sample, keys.size(), h, 0.5, 0.5));
  }
  return got;
}

// Pins DARE's output bit for bit: any change to the GA, the frame
// simulation or the unit costs that moves a chosen frame or a fitness
// value fails here, not only in the structures built downstream.
TEST(DareAgentTest, GoldenChooseParamsAndFitness) {
  constexpr DareGolden kWant[] = {
      {DatasetKind::kOsmc, 2, false, 106, 0xcbf29ce484222325ull,
       {0xc011ca8637c381a4ull, 0xc00fae3a98d86405ull,
        0xc0226316ce4db1b4ull}},
      {DatasetKind::kOsmc, 2, true, 52, 0xcbf29ce484222325ull,
       {0xc0043de67c4987a9ull, 0xc003118851636b1eull,
        0xc020c59932b3e38eull}},
      {DatasetKind::kOsmc, 3, false, 1, 0x42005b47c0c91090ull,
       {0xc0206a2cf0433e03ull, 0xc03c6a3e3bfadb15ull,
        0xc06f342ef7bf911aull}},
      {DatasetKind::kOsmc, 3, true, 1, 0x8d7d3e8cb98014edull,
       {0xc01d42b7f5ab569dull, 0xc03b9b7f6e2df3fdull,
        0xc06f1a571e05f437ull}},
      {DatasetKind::kLogn, 2, false, 106, 0xcbf29ce484222325ull,
       {0xc011cafde9d3d420ull, 0xc00fbcd0cfa5b86eull,
        0xc022240fe31adfc1ull}},
      {DatasetKind::kLogn, 2, true, 64, 0xcbf29ce484222325ull,
       {0xc004297ba86165d5ull, 0xc0030bd514ce35d0ull,
        0xc02081325bb56440ull}},
      {DatasetKind::kLogn, 3, false, 1, 0x78eb775dfdab22e8ull,
       {0xc01f71062c7bdea1ull, 0xc03c6932d8f049c1ull,
        0xc06e317f7ec0a1b5ull}},
      {DatasetKind::kLogn, 3, true, 1, 0x8d7d3e8cb98014edull,
       {0xc01bb968a173fa7eull, 0xc03b9a740b2362aaull,
        0xc06e17a7a50704d2ull}},
  };
  for (const DareGolden& want : kWant) {
    SCOPED_TRACE(testing::Message()
                 << DatasetName(want.kind) << " h=" << want.h
                 << " refine=" << want.assume_refinement);
    const DareGolden got =
        ComputeGolden(want.kind, want.h, want.assume_refinement);
    EXPECT_EQ(got.root_fanout, want.root_fanout);
    EXPECT_EQ(got.matrix_digest, want.matrix_digest);
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(got.fitness_bits[g], want.fitness_bits[g]) << "genome " << g;
    }
  }
}

TEST(DareAgentTest, GaPrefersSplittingOverOneGiantLeaf) {
  // For 100k keys the optimized root fanout should be substantially
  // greater than 1 (a single EBH leaf of 100k keys scores much worse).
  DareAgent agent(SmallConfig());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kUden, 100'000, 9);
  const DareParams params = agent.ChooseParams(keys, 2);
  EXPECT_GT(params.root_fanout, 16u);
}

TEST(DareAgentTest, AnalyticFitnessSensibleOrdering) {
  DareAgent agent(SmallConfig());
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kUden, 50'000, 3);
  // Genome: [log2 root fanout] for h = 2. 2^7 units of ~390 keys beat a
  // single 50k-key leaf; a severely over-fanned root (2^14, mostly empty
  // units) loses to 2^7 on unit overhead.
  const std::vector<float> tiny = {0.0f};    // root fanout 1
  const std::vector<float> medium = {7.0f};  // root fanout 128
  const std::vector<float> huge = {14.0f};   // root fanout 16384
  const double f_tiny =
      agent.AnalyticFitness(tiny, keys, keys.size(), 2, 0.5, 0.5);
  const double f_medium =
      agent.AnalyticFitness(medium, keys, keys.size(), 2, 0.5, 0.5);
  const double f_huge =
      agent.AnalyticFitness(huge, keys, keys.size(), 2, 0.5, 0.5);
  EXPECT_GT(f_medium, f_tiny);
  EXPECT_GT(f_medium, f_huge);
  EXPECT_LT(f_medium, 0.0);  // costs are positive => fitness negative
}

TEST(DareAgentTest, DynamicRewardWeightsChangeTheOptimum) {
  // With pure-memory weighting the best root fanout should be smaller
  // than with pure-time weighting (pointer overhead vs probe cost).
  DareConfig config = SmallConfig();
  config.ga.seed = 11;
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kUden, 100'000, 13);

  config.w_time = 1.0;
  config.w_mem = 0.0;
  DareAgent time_agent(config);
  const size_t f_time = time_agent.ChooseParams(keys, 2).root_fanout;

  config.w_time = 0.0;
  config.w_mem = 1.0;
  DareAgent mem_agent(config);
  const size_t f_mem = mem_agent.ChooseParams(keys, 2).root_fanout;

  EXPECT_LT(f_mem, f_time);
}

TEST(DareAgentTest, CriticTrainsOnRecordedExperiences) {
  DareConfig config = SmallConfig();
  config.use_critic = false;
  DareAgent agent(config);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kLogn, 30'000, 17);
  for (int i = 0; i < 4; ++i) agent.ChooseParams(keys, 2);
  ASSERT_EQ(agent.recorded_experiences(), 4u);
  const float mae_initial = agent.TrainCritic(1);
  const float mae_final = agent.TrainCritic(400);
  EXPECT_TRUE(std::isfinite(mae_final));
  EXPECT_LT(mae_final, mae_initial);
}

TEST(DareAgentTest, CriticDrivenGaStillProducesValidParams) {
  DareConfig config = SmallConfig();
  config.use_critic = true;
  DareAgent agent(config);
  const std::vector<Key> keys =
      GenerateDataset(DatasetKind::kFace, 30'000, 19);
  // Before training, use_critic falls back to analytic fitness.
  const DareParams p1 = agent.ChooseParams(keys, 2);
  EXPECT_GE(p1.root_fanout, 1u);
  agent.TrainCritic(200);
  const DareParams p2 = agent.ChooseParams(keys, 2);
  EXPECT_GE(p2.root_fanout, 1u);
  EXPECT_LE(p2.root_fanout, size_t{1} << 20);
}

}  // namespace
}  // namespace chameleon
