#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/factory.h"
#include "nn/snapshot.h"
#include "tensor/ops.h"
#include "train/grid_search.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

/// Binds the snapshot at `path` zero-copy into `model`.
void BindFromFile(const std::string& path, Recommender& model) {
  auto snapshot = Snapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value()->tag(), model.name());
  ASSERT_TRUE(BindSnapshot(model, snapshot.value()).ok());
}

/// End-to-end training fixture on a small but learnable dataset.
class TrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "train-test";
    config.num_users = 40;
    config.num_items = 150;
    config.num_categories = 10;
    config.num_scenes = 6;
    config.sessions_per_user = 5;
    config.session_length = 6;
    auto dataset = GenerateSyntheticDataset(config, 77);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    Rng rng(1);
    auto split = MakeLeaveOneOutSplit(dataset_, /*num_negatives=*/50, rng);
    ASSERT_TRUE(split.ok());
    split_ = std::move(split).value();
    train_graph_ = UserItemGraph::Build(dataset_.num_users, dataset_.num_items,
                                        split_.train);
    scene_graph_ = dataset_.BuildSceneGraph();
  }

  Dataset dataset_;
  LeaveOneOutSplit split_;
  UserItemGraph train_graph_;
  SceneGraph scene_graph_;
};

TEST_F(TrainTest, ConfigValidation) {
  TrainConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainConfig();
  config.learning_rate = -1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainConfig();
  config.weight_decay = -0.1f;
  EXPECT_FALSE(config.Validate().ok());
  // NaN passes every ordered comparison, so it needs its own refusal.
  config = TrainConfig();
  config.learning_rate = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = TrainConfig();
  config.weight_decay = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
}

TEST_F(TrainTest, BprMfLearnsAboveRandom) {
  Rng rng(2);
  BprMf model(dataset_.num_users, dataset_.num_items, 16, rng);
  TrainConfig config;
  config.epochs = 8;
  config.learning_rate = 5e-3f;
  config.patience = 0;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Random ranking over 51 candidates gives HR@10 ~ 10/51 ~ 0.196.
  EXPECT_GT(result->test.hr, 0.25);
  EXPECT_GT(result->best_validation.ndcg, 0.1);
  EXPECT_EQ(result->epochs_run, 8);
  EXPECT_EQ(result->epoch_losses.size(), 8u);
  EXPECT_EQ(result->epoch_validations.size(), 8u);
  // The recorded learning curve peaks at best_validation.
  double peak = 0;
  for (const RankingMetrics& m : result->epoch_validations) {
    peak = std::max(peak, m.ndcg);
  }
  EXPECT_DOUBLE_EQ(peak, result->best_validation.ndcg);
  // Loss should decrease from first to best epoch.
  EXPECT_LT(result->epoch_losses.back(), result->epoch_losses.front());
}

TEST_F(TrainTest, TrainingIsDeterministic) {
  auto run = [&]() {
    Rng rng(3);
    BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
    TrainConfig config;
    config.epochs = 3;
    config.seed = 5;
    auto result = TrainAndEvaluate(model, split_, train_graph_, config);
    EXPECT_TRUE(result.ok());
    return result->test;
  };
  RankingMetrics a = run();
  RankingMetrics b = run();
  EXPECT_DOUBLE_EQ(a.ndcg, b.ndcg);
  EXPECT_DOUBLE_EQ(a.hr, b.hr);
}

TEST_F(TrainTest, EarlyStoppingRespectsPatience) {
  Rng rng(4);
  BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
  TrainConfig config;
  config.epochs = 50;
  config.patience = 2;
  config.learning_rate = 1e-1f;  // aggressive: will plateau quickly
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->epochs_run, 50);
  EXPECT_GE(result->epochs_run, 3);
}

TEST_F(TrainTest, ModelSelectionRestoresBestWeights) {
  Rng rng(5);
  BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
  TrainConfig config;
  config.epochs = 6;
  config.patience = 0;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok());
  // The model was left at the best-validation snapshot: re-evaluating the
  // validation set now must reproduce best_validation.
  model.OnEvalBegin();
  RankingMetrics revalidated =
      EvaluateRanking(model.BlockScorer(), split_.validation, kEvalK);
  EXPECT_NEAR(revalidated.ndcg, result->best_validation.ndcg, 1e-9);
  EXPECT_NEAR(revalidated.hr, result->best_validation.hr, 1e-9);
}

TEST_F(TrainTest, SceneRecTrainsEndToEnd) {
  ModelContext context{&train_graph_, &scene_graph_};
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 16;
  factory_config.max_neighbors = 8;
  auto model = MakeRecommender("SceneRec", context, factory_config);
  ASSERT_TRUE(model.ok());
  TrainConfig config;
  config.epochs = 3;
  config.patience = 0;
  auto result = TrainAndEvaluate(**model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->test.hr, 0.2);
  EXPECT_TRUE(std::isfinite(result->epoch_losses.back()));
}

TEST_F(TrainTest, CheckpointWrittenAtBestEpoch) {
  Rng rng(11);
  BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
  char dir_template[] = "/tmp/scenerec_train_ckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  TrainConfig config;
  config.epochs = 4;
  config.learning_rate = 5e-3f;
  config.snapshot_dir = dir_template;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->last_snapshot_path.empty());
  EXPECT_EQ(result->last_snapshot_path,
            SnapshotStore(dir_template).PathFor(result->last_snapshot_version));

  // The newest snapshot holds the best-validation weights: bound into a new
  // model, it reproduces the reported test metrics exactly.
  Rng rng2(999);
  BprMf restored(dataset_.num_users, dataset_.num_items, 8, rng2);
  BindFromFile(result->last_snapshot_path, restored);
  restored.OnEvalBegin();
  RankingMetrics test =
      EvaluateRanking(restored.BlockScorer(), split_.test, kEvalK);
  EXPECT_NEAR(test.ndcg, result->test.ndcg, 1e-9);
  EXPECT_NEAR(test.hr, result->test.hr, 1e-9);
  std::error_code ec;
  std::filesystem::remove_all(dir_template, ec);
}

TEST_F(TrainTest, FullRankingProtocolRunsOnTrainedModel) {
  Rng rng(10);
  BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
  TrainConfig config;
  config.epochs = 4;
  config.learning_rate = 5e-3f;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  ASSERT_TRUE(result.ok());
  model.OnEvalBegin();
  RankingMetrics full = EvaluateFullRanking(model.BlockScorer(), train_graph_,
                                            split_.test, 10);
  EXPECT_EQ(full.num_instances, static_cast<int64_t>(split_.test.size()));
  // Full ranking against all 150 items is strictly harder than ranking
  // against 50 sampled negatives.
  EXPECT_LE(full.hr, result->test.hr + 1e-9);
  EXPECT_GT(full.mrr, 0.0);
}

TEST_F(TrainTest, RejectsEmptyTrainingSet) {
  Rng rng(6);
  BprMf model(dataset_.num_users, dataset_.num_items, 8, rng);
  LeaveOneOutSplit empty;
  TrainConfig config;
  auto result = TrainAndEvaluate(model, empty, train_graph_, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TrainTest, GridSearchPicksBestValidationCell) {
  auto builder = [&]() -> std::unique_ptr<Recommender> {
    Rng rng(7);
    return std::make_unique<BprMf>(dataset_.num_users, dataset_.num_items, 8,
                                   rng);
  };
  TrainConfig base;
  base.epochs = 3;
  base.patience = 0;
  auto result = GridSearch(builder, split_, train_graph_, base,
                           {1e-3f, 1e-2f}, {0.0f, 1e-4f});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->entries.size(), 4u);
  double best = -1.0;
  for (const GridSearchEntry& e : result->entries) {
    best = std::max(best, e.validation.ndcg);
  }
  EXPECT_DOUBLE_EQ(result->best.validation.ndcg, best);
}

/// Minimal Recommender whose loss goes NaN after `finite_batches` batches —
/// a stand-in for a diverged model.
class NanLossModel : public Recommender {
 public:
  explicit NanLossModel(int64_t finite_batches)
      : finite_batches_(finite_batches),
        param_(Tensor::Scalar(0.1f, /*requires_grad=*/true)) {}

  std::string name() const override { return "NanLossStub"; }
  void CollectParameters(std::vector<Tensor>* out) const override {
    out->push_back(param_);
  }
  Tensor ScoreForTraining(int64_t, int64_t) override { return param_; }
  Tensor BatchLoss(std::span<const BprTriple> batch) override {
    ++batches_;
    const float factor =
        batches_ > finite_batches_ ? std::numeric_limits<float>::quiet_NaN()
                                   : static_cast<float>(batch.size());
    return Scale(param_, factor);
  }
  void ScoreBlock(int64_t, std::span<const int64_t>,
                  std::span<float> out) override {
    std::fill(out.begin(), out.end(), 0.0f);
  }

 private:
  int64_t finite_batches_;
  int64_t batches_ = 0;
  Tensor param_;
};

/// Loss stays finite but every inference score is NaN — the shape of a model
/// whose eval cache diverged.
class NanScoreModel : public Recommender {
 public:
  NanScoreModel() : param_(Tensor::Scalar(0.1f, /*requires_grad=*/true)) {}

  std::string name() const override { return "NanScoreStub"; }
  void CollectParameters(std::vector<Tensor>* out) const override {
    out->push_back(param_);
  }
  Tensor ScoreForTraining(int64_t, int64_t) override { return param_; }
  Tensor BatchLoss(std::span<const BprTriple> batch) override {
    return Scale(param_, static_cast<float>(batch.size()));
  }
  void ScoreBlock(int64_t, std::span<const int64_t>,
                  std::span<float> out) override {
    std::fill(out.begin(), out.end(),
              std::numeric_limits<float>::quiet_NaN());
  }

 private:
  Tensor param_;
};

TEST_F(TrainTest, NonFiniteLossAbortsTraining) {
  telemetry::Telemetry::SetEnabled(true);
  telemetry::Telemetry::Reset();
  NanLossModel model(/*finite_batches=*/3);
  TrainConfig config;
  config.epochs = 5;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_GE(telemetry::Telemetry::Snapshot().CounterValue(
                "train/nonfinite_loss"),
            1u);
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(false);
}

TEST_F(TrainTest, NonFiniteValidationAbortsTraining) {
  // Pre-fix behavior: NaN scores rank the positive at 0 (all comparisons
  // false), NDCG came back 1.0, and the diverged model won model selection.
  // Now the evaluator reports NaN and the trainer must fail loudly.
  NanScoreModel model;
  TrainConfig config;
  config.epochs = 3;
  auto result = TrainAndEvaluate(model, split_, train_graph_, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(TrainTest, EarlyStopRestoresExactBestEpochWeights) {
  // Run A: long horizon with early stopping and snapshots. Run B: fresh
  // identically-seeded model trained for exactly best_epoch + 1 epochs.
  // Training is deterministic, so A's restored weights must equal B's
  // final-best weights bitwise, and A's newest snapshot must reproduce A's
  // test metrics exactly.
  char dir_template[] = "/tmp/scenerec_earlystop_ckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);

  TrainConfig config;
  config.epochs = 30;
  config.patience = 2;
  config.learning_rate = 1e-1f;  // aggressive: plateaus (and stops) quickly
  config.snapshot_dir = dir_template;
  Rng rng_a(21);
  BprMf model_a(dataset_.num_users, dataset_.num_items, 8, rng_a);
  auto result_a = TrainAndEvaluate(model_a, split_, train_graph_, config);
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_LT(result_a->epochs_run, 30) << "early stopping never fired";
  ASSERT_GE(result_a->best_epoch, 0);

  TrainConfig config_b;
  config_b.epochs = result_a->best_epoch + 1;
  config_b.patience = 0;
  config_b.learning_rate = config.learning_rate;
  Rng rng_b(21);
  BprMf model_b(dataset_.num_users, dataset_.num_items, 8, rng_b);
  auto result_b = TrainAndEvaluate(model_b, split_, train_graph_, config_b);
  ASSERT_TRUE(result_b.ok());
  EXPECT_EQ(result_b->best_epoch, result_a->best_epoch);

  // Both models now hold their best-validation snapshots — the same epoch's
  // weights, reached by identical deterministic trajectories.
  const std::vector<Tensor> params_a = model_a.Parameters();
  const std::vector<Tensor> params_b = model_b.Parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(params_a[i].value(), params_b[i].value()) << "param " << i;
  }

  // The newest snapshot (written when validation last improved) binds into
  // a third model that reproduces A's reported metrics exactly.
  ASSERT_FALSE(result_a->last_snapshot_path.empty());
  Rng rng_c(9999);
  BprMf restored(dataset_.num_users, dataset_.num_items, 8, rng_c);
  BindFromFile(result_a->last_snapshot_path, restored);
  restored.OnEvalBegin();
  RankingMetrics val =
      EvaluateRanking(restored.BlockScorer(), split_.validation, kEvalK);
  RankingMetrics test =
      EvaluateRanking(restored.BlockScorer(), split_.test, kEvalK);
  EXPECT_DOUBLE_EQ(val.ndcg, result_a->best_validation.ndcg);
  EXPECT_DOUBLE_EQ(test.ndcg, result_a->test.ndcg);
  EXPECT_DOUBLE_EQ(test.hr, result_a->test.hr);
  std::error_code ec;
  std::filesystem::remove_all(dir_template, ec);
}

TEST_F(TrainTest, GridSearchRejectsEmptyGrid) {
  auto builder = [&]() -> std::unique_ptr<Recommender> {
    Rng rng(8);
    return std::make_unique<BprMf>(dataset_.num_users, dataset_.num_items, 8,
                                   rng);
  };
  TrainConfig base;
  EXPECT_FALSE(GridSearch(builder, split_, train_graph_, base, {}, {0.0f}).ok());
}

}  // namespace
}  // namespace scenerec
