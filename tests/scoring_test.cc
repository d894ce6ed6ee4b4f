// Cross-model equivalence tests for the block-scoring path
// (docs/serving.md): for every factory model — batching fast paths and
// per-pair fallbacks alike — ScoreBlock must be bitwise equal to per-pair
// Score(), and the block-based ranking/serving entry points must reproduce
// the per-pair results exactly, serial and parallel. Runs under TSan (the
// parallel block sweep) and ASan+UBSan (span/buffer arithmetic) via
// tools/check.sh.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

/// Every factory-constructible model: the Table 2 grid (including the
/// SceneRec ablation variants) plus the two reference baselines.
std::vector<std::string> AllModelNames() {
  std::vector<std::string> names = Table2ModelNames();
  names.push_back("KGCN");
  names.push_back("GCMC");
  names.push_back("ItemPop");
  names.push_back("ItemRank");
  return names;
}

const char* const kSceneRecVariants[] = {"SceneRec", "SceneRec-noitem",
                                         "SceneRec-nosce", "SceneRec-noatt"};

/// eq. (14) in the concat form training uses, under NoGradGuard — the
/// reference the factorized eval head is held against.
float ConcatScore(Recommender& model, int64_t user, int64_t item) {
  NoGradGuard no_grad;
  return model.ScoreForTraining(user, item).scalar();
}

class ScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "scoring-test";
    config.num_users = 30;
    config.num_items = 90;
    config.num_categories = 8;
    config.num_scenes = 5;
    config.sessions_per_user = 4;
    config.session_length = 5;
    auto dataset = GenerateSyntheticDataset(config, 99);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    Rng rng(1);
    auto split = MakeLeaveOneOutSplit(dataset_, /*num_negatives=*/20, rng);
    ASSERT_TRUE(split.ok());
    split_ = std::move(split).value();
    train_graph_ = UserItemGraph::Build(dataset_.num_users, dataset_.num_items,
                                        split_.train);
    scene_graph_ = dataset_.BuildSceneGraph();
  }

  std::unique_ptr<Recommender> Make(const std::string& name) {
    ModelContext context;
    context.user_item = &train_graph_;
    context.scene = &scene_graph_;
    ModelFactoryConfig config;
    config.embedding_dim = 16;
    config.ncf_dim = 8;
    config.max_neighbors = 8;
    auto model = MakeRecommender(name, context, config);
    EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    return model.ok() ? std::move(model).value() : nullptr;
  }

  std::vector<int64_t> AllItems() const {
    std::vector<int64_t> items(static_cast<size_t>(dataset_.num_items));
    for (size_t i = 0; i < items.size(); ++i) {
      items[i] = static_cast<int64_t>(i);
    }
    return items;
  }

  Dataset dataset_;
  LeaveOneOutSplit split_;
  UserItemGraph train_graph_;
  SceneGraph scene_graph_;
};

// The core contract: out[r] of one full-catalog block is bitwise equal to
// the per-pair Score, for every factory model (fast path or fallback).
TEST_F(ScoringTest, ScoreBlockIsBitwiseEqualToPerPairScoreForAllModels) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const std::vector<int64_t> items = AllItems();
    std::vector<float> block(items.size());
    for (int64_t user : {int64_t{0}, int64_t{7}, int64_t{29}}) {
      model->ScoreBlock(user, items, block);
      for (size_t r = 0; r < items.size(); ++r) {
        // EXPECT_EQ, not NEAR: the block path must not change numerics.
        ASSERT_EQ(block[r], model->Score(user, items[r]))
            << "user " << user << " item " << items[r];
      }
    }
  }
}

// Same contract when Score() runs first and fills the lazy eval caches the
// block path then reads (the reverse fill order of the test above).
TEST_F(ScoringTest, ScoreBlockMatchesAfterPerPairWarmedCaches) {
  std::unique_ptr<Recommender> model = Make("SceneRec");
  ASSERT_NE(model, nullptr);
  ASSERT_TRUE(model->SupportsBlockScoring());
  model->OnEvalBegin();
  const std::vector<int64_t> items = AllItems();
  std::vector<float> expected(items.size());
  for (size_t r = 0; r < items.size(); ++r) {
    expected[r] = model->Score(3, items[r]);
  }
  std::vector<float> block(items.size());
  model->ScoreBlock(3, items, block);
  for (size_t r = 0; r < items.size(); ++r) {
    ASSERT_EQ(block[r], expected[r]) << "item " << items[r];
  }
}

// Edge case: an empty candidate block is a no-op for every model.
TEST_F(ScoringTest, EmptyBlockIsNoOp) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    model->ScoreBlock(0, std::span<const int64_t>(), std::span<float>());
  }
}

// Full-ranking metrics are bitwise identical between the per-pair ScoreFn
// path and the block path, for a batching model and a fallback model.
TEST_F(ScoringTest, FullRankingMetricsIdenticalAcrossPaths) {
  for (const char* name : {"SceneRec", "BPR-MF", "NGCF", "NCF"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics per_pair = EvaluateFullRanking(
        model->Scorer(), train_graph_, split_.test, 10, nullptr);
    const RankingMetrics block = EvaluateFullRanking(
        model->BlockScorer(), train_graph_, split_.test, 10, nullptr);
    EXPECT_DOUBLE_EQ(per_pair.hr, block.hr);
    EXPECT_DOUBLE_EQ(per_pair.ndcg, block.ndcg);
    EXPECT_DOUBLE_EQ(per_pair.mrr, block.mrr);
    EXPECT_EQ(per_pair.num_instances, block.num_instances);
  }
}

// Sampled-protocol metrics likewise.
TEST_F(ScoringTest, SampledRankingMetricsIdenticalAcrossPaths) {
  for (const char* name : {"SceneRec-noatt", "KGAT", "ItemRank"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics per_pair =
        EvaluateRanking(model->Scorer(), split_.test, 10, nullptr);
    model->OnEvalBegin();
    const RankingMetrics block =
        EvaluateRanking(model->BlockScorer(), split_.test, 10, nullptr);
    EXPECT_DOUBLE_EQ(per_pair.hr, block.hr);
    EXPECT_DOUBLE_EQ(per_pair.ndcg, block.ndcg);
    EXPECT_DOUBLE_EQ(per_pair.mrr, block.mrr);
  }
}

// Parallel block scoring (concurrent ScoreBlock on pool threads, reading
// the caches PrepareParallelScoring filled) reproduces the serial per-pair
// metrics bitwise. This is the TSan-critical sweep.
TEST_F(ScoringTest, ParallelBlockFullRankingMatchesSerialPerPair) {
  for (const char* name :
       {"SceneRec", "SceneRec-nosce", "BPR-MF", "GCMC"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics serial = EvaluateFullRanking(
        model->Scorer(), train_graph_, split_.test, 10, nullptr);
    ThreadPool pool(4);
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    const RankingMetrics parallel = EvaluateFullRanking(
        model->BlockScorer(), train_graph_, split_.test, 10, &pool);
    EXPECT_DOUBLE_EQ(serial.hr, parallel.hr);
    EXPECT_DOUBLE_EQ(serial.ndcg, parallel.ndcg);
    EXPECT_DOUBLE_EQ(serial.mrr, parallel.mrr);
  }
}

// Top-N serving: the block path with partial selection returns the exact
// list of the per-pair path, for every model.
TEST_F(ScoringTest, TopNIdenticalAcrossPathsForAllModels) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    for (int64_t user : {int64_t{0}, int64_t{11}}) {
      const auto per_pair =
          TopNRecommendations(model->Scorer(), train_graph_, user, 10);
      const auto block =
          TopNRecommendations(model->BlockScorer(), train_graph_, user, 10);
      ASSERT_EQ(per_pair.size(), block.size());
      for (size_t i = 0; i < per_pair.size(); ++i) {
        EXPECT_EQ(per_pair[i].item, block[i].item) << "rank " << i;
        EXPECT_EQ(per_pair[i].score, block[i].score) << "rank " << i;
      }
    }
  }
}

// SceneRec's eval head is the factorized eq. (14): every eval path (Score,
// ScoreBlock, ScoreRows over several users) stays within 1e-5 absolute of
// the concat form ScoreForTraining keeps, untrained and after training, for
// every variant. Only the float grouping of the first layer differs.
TEST_F(ScoringTest, FactorizedHeadWithinToleranceOfConcatForm) {
  const std::vector<int64_t> items = AllItems();
  const std::vector<int64_t> users = {0, 7, 29};
  std::vector<int64_t> row_users;
  std::vector<int64_t> row_items;
  for (int64_t user : users) {
    row_users.insert(row_users.end(), items.size(), user);
    row_items.insert(row_items.end(), items.begin(), items.end());
  }
  for (const char* name : kSceneRecVariants) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    for (const bool trained : {false, true}) {
      SCOPED_TRACE(trained ? "trained" : "untrained");
      if (trained) {
        TrainConfig train;
        train.epochs = 2;
        train.patience = 0;
        ASSERT_TRUE(TrainAndEvaluate(*model, split_, train_graph_, train).ok());
      }
      model->OnEvalBegin();
      std::vector<float> rows(row_users.size());
      model->ScoreRows(row_users, row_items, rows);
      std::vector<float> block(items.size());
      float max_gap = 0.0f;
      size_t r = 0;
      for (int64_t user : users) {
        model->ScoreBlock(user, items, block);
        for (size_t k = 0; k < items.size(); ++k, ++r) {
          const float concat = ConcatScore(*model, user, items[k]);
          const float single = model->Score(user, items[k]);
          max_gap = std::max({max_gap, std::fabs(block[k] - concat),
                              std::fabs(rows[r] - concat),
                              std::fabs(single - concat)});
        }
      }
      EXPECT_LE(max_gap, 1e-5f);
    }
  }
}

// P filled by PrepareParallelScoring (one GemvMulti per item chunk) is
// bitwise the P a serial sweep fills item by item with Gemv, here in
// reverse item order.
TEST_F(ScoringTest, PreparedRatingHeadTableEqualsLazyFill) {
  const int64_t num_items = dataset_.num_items;
  for (const char* name : kSceneRecVariants) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    auto* scene_rec = dynamic_cast<SceneRec*>(model.get());
    ASSERT_NE(scene_rec, nullptr);
    model->OnEvalBegin();
    std::vector<std::vector<float>> lazy(static_cast<size_t>(num_items));
    for (int64_t item = num_items - 1; item >= 0; --item) {
      const std::span<const float> row = scene_rec->RatingHeadItemRow(item);
      lazy[static_cast<size_t>(item)].assign(row.begin(), row.end());
    }
    model->OnEvalBegin();
    ThreadPool pool(4);
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    for (int64_t item = 0; item < num_items; ++item) {
      const std::span<const float> row = scene_rec->RatingHeadItemRow(item);
      const std::vector<float>& want = lazy[static_cast<size_t>(item)];
      ASSERT_EQ(row.size(), want.size());
      for (size_t j = 0; j < row.size(); ++j) {
        ASSERT_EQ(row[j], want[j]) << "item " << item << " col " << j;
      }
    }
  }
}

// On a trained mini-model, swapping the concat head for the factorized one
// leaves the sampled-100 and full-ranking HR/NDCG where they were.
TEST_F(ScoringTest, TrainedHeadsAgreeOnRankingMetrics) {
  SyntheticConfig config;
  config.name = "head-parity";
  config.num_users = 40;
  config.num_items = 200;
  config.num_categories = 10;
  config.num_scenes = 6;
  config.sessions_per_user = 4;
  config.session_length = 5;
  auto dataset = GenerateSyntheticDataset(config, 7);
  ASSERT_TRUE(dataset.ok());
  Rng rng(3);
  auto split = MakeLeaveOneOutSplit(dataset.value(), /*num_negatives=*/100,
                                    rng);
  ASSERT_TRUE(split.ok());
  const UserItemGraph graph =
      UserItemGraph::Build(dataset.value().num_users,
                           dataset.value().num_items, split.value().train);
  const SceneGraph scene = dataset.value().BuildSceneGraph();
  ModelContext context;
  context.user_item = &graph;
  context.scene = &scene;
  ModelFactoryConfig factory;
  factory.embedding_dim = 16;
  factory.max_neighbors = 8;
  auto made = MakeRecommender("SceneRec", context, factory);
  ASSERT_TRUE(made.ok());
  std::unique_ptr<Recommender> model = std::move(made).value();
  TrainConfig train;
  train.epochs = 3;
  train.patience = 0;
  ASSERT_TRUE(TrainAndEvaluate(*model, split.value(), graph, train).ok());

  model->OnEvalBegin();
  const ScoreFn concat = [&](int64_t user, int64_t item) {
    return ConcatScore(*model, user, item);
  };
  const auto& test = split.value().test;
  const RankingMetrics sampled_concat = EvaluateRanking(concat, test, 10);
  const RankingMetrics sampled =
      EvaluateRanking(model->BlockScorer(), test, 10);
  const RankingMetrics full_concat =
      EvaluateFullRanking(concat, graph, test, 10);
  const RankingMetrics full =
      EvaluateFullRanking(model->BlockScorer(), graph, test, 10);
  EXPECT_NEAR(sampled.hr, sampled_concat.hr, 1e-3);
  EXPECT_NEAR(sampled.ndcg, sampled_concat.ndcg, 1e-3);
  EXPECT_NEAR(full.hr, full_concat.hr, 1e-3);
  EXPECT_NEAR(full.ndcg, full_concat.ndcg, 1e-3);
}

// Masked-to-nothing edge case: when the user has interacted with everything
// except the positive, the full-ranking candidate list is just the positive
// (rank 0, perfect metrics) and Top-N has one candidate.
TEST_F(ScoringTest, FullyMaskedCatalogEdgeCase) {
  std::vector<Interaction> interactions;
  for (int64_t item = 0; item < 5; ++item) {
    if (item != 3) interactions.push_back({0, item});
  }
  UserItemGraph graph = UserItemGraph::Build(1, 5, interactions);
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 3, {}};
  BlockScoreFn score = BlockScorerFromPairs(
      [](int64_t, int64_t item) { return static_cast<float>(item); });
  const RankingMetrics m = EvaluateFullRanking(score, graph, instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);

  const auto recs = TopNRecommendations(score, graph, 0, 10);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 3);
}

}  // namespace
}  // namespace scenerec
