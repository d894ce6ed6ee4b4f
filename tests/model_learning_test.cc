// Parameterized end-to-end learning test: every trainable model in the
// factory must rank held-out positives meaningfully above chance after a
// short training run on scene-coherent data. This is the repository's
// broadest regression net — a change that silently breaks any model's
// gradient flow or scoring path fails here.

#include <gtest/gtest.h>

#include <ostream>

#include "bench/bench_util.h"
#include "models/factory.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

struct LearningCase {
  const char* model;
  // Minimum test HR@10 with 50 sampled negatives. Chance is 10/51 ~ 0.196.
  double min_hr;
  float learning_rate;
};

// Without this gtest prints the case as raw bytes, which include the
// address of `model`; that address changes from run to run, and the
// printed value becomes part of the test name CTest registers.
void PrintTo(const LearningCase& c, std::ostream* os) { *os << c.model; }

class ModelLearning : public ::testing::TestWithParam<LearningCase> {
 protected:
  static const bench::PreparedDataset& Prepared() {
    // One shared dataset for the whole sweep (expensive to regenerate).
    static const bench::PreparedDataset* const kPrepared = [] {
      auto prepared =
          bench::PrepareJdDataset(JdPreset::kElectronics, 0.018, 7,
                                  /*num_negatives=*/50);
      SCENEREC_CHECK(prepared.ok()) << prepared.status().ToString();
      return new bench::PreparedDataset(std::move(prepared).value());
    }();
    return *kPrepared;
  }
};

TEST_P(ModelLearning, BeatsRandomRanking) {
  const LearningCase& param = GetParam();
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 16;
  factory_config.ncf_dim = 8;
  factory_config.gnn_depth = 2;
  factory_config.max_neighbors = 8;
  TrainConfig train_config;
  train_config.epochs = 8;
  train_config.learning_rate = param.learning_rate;
  auto cell = bench::RunCell(param.model, Prepared(), factory_config,
                             train_config);
  ASSERT_TRUE(cell.ok()) << param.model << ": " << cell.status().ToString();
  EXPECT_GT(cell->test.hr, param.min_hr)
      << param.model << " NDCG " << cell->test.ndcg;
  EXPECT_GT(cell->test.ndcg, 0.05) << param.model;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelLearning,
    ::testing::Values(
        // Chance HR@10 here is ~0.196; require a clear margin for the
        // personalized models and a loose floor for the weak reference
        // baselines.
        LearningCase{"BPR-MF", 0.24, 5e-3f},
        LearningCase{"NCF", 0.24, 1e-2f},
        LearningCase{"CMN", 0.20, 5e-3f},
        LearningCase{"PinSAGE", 0.24, 1e-3f},
        LearningCase{"NGCF", 0.24, 1e-3f},
        LearningCase{"GCMC", 0.24, 2e-3f},
        LearningCase{"KGAT", 0.22, 2e-3f},
        LearningCase{"KGCN", 0.22, 2e-3f},
        LearningCase{"SceneRec", 0.26, 2e-3f},
        LearningCase{"SceneRec-noitem", 0.24, 2e-3f},
        LearningCase{"SceneRec-nosce", 0.24, 2e-3f},
        LearningCase{"SceneRec-noatt", 0.24, 2e-3f}),
    [](const ::testing::TestParamInfo<LearningCase>& info) {
      std::string name = info.param.model;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace scenerec
