#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/cmn.h"
#include "models/factory.h"
#include "models/kgat.h"
#include "models/ncf.h"
#include "models/neighbor_util.h"
#include "models/ngcf.h"
#include "models/pinsage.h"
#include "models/propagation.h"
#include "models/scene_rec.h"
#include "tensor/ops.h"

namespace scenerec {
namespace {

/// Shared tiny dataset fixture for all model tests.
class ModelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "models-test";
    config.num_users = 20;
    config.num_items = 80;
    config.num_categories = 8;
    config.num_scenes = 5;
    config.sessions_per_user = 4;
    config.session_length = 5;
    auto result = GenerateSyntheticDataset(config, 99);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).value();
    ui_graph_ = dataset_.BuildUserItemGraph();
    scene_graph_ = dataset_.BuildSceneGraph();
  }

  /// Checks the full training contract of a model: finite scores, a finite
  /// batch loss, and gradients reaching every parameter after Backward.
  void CheckTrainingContract(Recommender& model) {
    Tensor score = model.ScoreForTraining(1, 2);
    EXPECT_EQ(score.num_elements(), 1);
    EXPECT_TRUE(std::isfinite(score.scalar())) << model.name();

    std::vector<BprTriple> batch{{0, 1, 2},  {1, 3, 4},  {2, 5, 6},
                                 {3, 7, 8},  {4, 9, 10}, {5, 11, 12},
                                 {6, 13, 14}, {7, 15, 16}};
    model.ZeroGrad();
    Tensor loss = model.BatchLoss(batch);
    EXPECT_TRUE(std::isfinite(loss.scalar())) << model.name();
    EXPECT_GT(loss.scalar(), 0.0f) << model.name();
    Backward(loss);

    int params_with_grad = 0;
    int params_total = 0;
    for (const Tensor& p : model.Parameters()) {
      ++params_total;
      if (p.grad().empty()) continue;
      float magnitude = 0.0f;
      for (float g : p.grad()) magnitude += std::fabs(g);
      if (magnitude > 0.0f) ++params_with_grad;
    }
    // Nearly every parameter group should receive gradient from one batch.
    // Structural exceptions exist: an output-layer bias cancels exactly in a
    // pairwise BPR loss (identical contribution to both scores), and paths
    // shared between the positive and negative branch (e.g. the user tower)
    // cancel when piecewise-linear activation patterns happen to coincide.
    EXPECT_GT(params_with_grad, 0) << model.name();
    EXPECT_GE(params_with_grad, params_total - 3)
        << model.name() << ": too many dead parameters";
  }

  /// Checks that inference scoring is deterministic and matches across calls.
  void CheckDeterministicInference(Recommender& model) {
    model.OnEvalBegin();
    const float a = model.Score(3, 7);
    const float b = model.Score(3, 7);
    EXPECT_EQ(a, b) << model.name();
    EXPECT_TRUE(std::isfinite(a));
  }

  Dataset dataset_;
  UserItemGraph ui_graph_;
  SceneGraph scene_graph_;
};

TEST_F(ModelsTest, BprMfContract) {
  Rng rng(1);
  BprMf model(ui_graph_.num_users(), ui_graph_.num_items(), 16, rng);
  EXPECT_EQ(model.name(), "BPR-MF");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, BprMfFastScoreMatchesTrainingScore) {
  Rng rng(2);
  BprMf model(ui_graph_.num_users(), ui_graph_.num_items(), 16, rng);
  NoGradGuard no_grad;
  for (int64_t u = 0; u < 3; ++u) {
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(model.Score(u, i), model.ScoreForTraining(u, i).scalar(),
                  1e-5);
    }
  }
}

TEST_F(ModelsTest, NcfContract) {
  Rng rng(3);
  Ncf model(ui_graph_.num_users(), ui_graph_.num_items(), 8, rng);
  EXPECT_EQ(model.name(), "NCF");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, CmnContract) {
  Rng rng(4);
  Cmn model(&ui_graph_, 16, /*max_neighbors=*/8, rng);
  EXPECT_EQ(model.name(), "CMN");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, PinSageContract) {
  Rng rng(5);
  PinSage model(&ui_graph_, 16, /*fanout1=*/4, /*fanout2=*/8, rng);
  EXPECT_EQ(model.name(), "PinSAGE");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, NgcfContract) {
  Rng rng(6);
  Ngcf model(&ui_graph_, 16, /*depth=*/2, rng);
  EXPECT_EQ(model.name(), "NGCF");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, NgcfCachedScoreMatchesTrainingScore) {
  Rng rng(7);
  Ngcf model(&ui_graph_, 8, 2, rng);
  model.OnEvalBegin();
  NoGradGuard no_grad;
  for (int64_t u = 0; u < 3; ++u) {
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(model.Score(u, i), model.ScoreForTraining(u, i).scalar(),
                  1e-3);
    }
  }
}

TEST_F(ModelsTest, NgcfMessageDropoutTrainsAndEvalIsClean) {
  Rng rng(60);
  Ngcf model(&ui_graph_, 8, 2, rng, /*message_dropout=*/0.3f);
  CheckTrainingContract(model);
  // Dropout must be inactive at inference: scores are deterministic.
  model.OnEvalBegin();
  EXPECT_EQ(model.Score(0, 1), model.Score(0, 1));
  // And two consecutive TRAINING losses on the same batch differ (different
  // dropout masks).
  std::vector<BprTriple> batch{{0, 1, 2}, {1, 3, 4}};
  const float a = model.BatchLoss(batch).scalar();
  const float b = model.BatchLoss(batch).scalar();
  EXPECT_NE(a, b);
}

TEST_F(ModelsTest, KgatContract) {
  Rng rng(8);
  Kgat model(&ui_graph_, &scene_graph_, 16, /*depth=*/2, rng);
  EXPECT_EQ(model.name(), "KGAT");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, KgatAttentionChangesWithEmbeddings) {
  Rng rng(9);
  Kgat model(&ui_graph_, &scene_graph_, 8, 1, rng);
  model.OnEvalBegin();
  const float before = model.Score(0, 1);
  // Perturb the entity embeddings and refresh attention: score must change.
  for (Tensor& p : model.Parameters()) {
    for (float& v : p.mutable_value()) v += 0.1f;
  }
  model.OnEpochBegin();
  model.OnEvalBegin();
  const float after = model.Score(0, 1);
  EXPECT_NE(before, after);
}

TEST_F(ModelsTest, SceneRecContract) {
  Rng rng(10);
  SceneRecConfig config;
  config.embedding_dim = 16;
  config.max_neighbors = 8;
  SceneRec model(&ui_graph_, &scene_graph_, config, rng);
  EXPECT_EQ(model.name(), "SceneRec");
  CheckTrainingContract(model);
  CheckDeterministicInference(model);
}

TEST_F(ModelsTest, SceneRecVariantsNamedCorrectly) {
  Rng rng(11);
  SceneRecConfig config;
  config.embedding_dim = 8;

  config.use_item_item = false;
  SceneRec noitem(&ui_graph_, &scene_graph_, config, rng);
  EXPECT_EQ(noitem.name(), "SceneRec-noitem");

  config.use_item_item = true;
  config.use_scene = false;
  SceneRec nosce(&ui_graph_, &scene_graph_, config, rng);
  EXPECT_EQ(nosce.name(), "SceneRec-nosce");

  config.use_scene = true;
  config.use_attention = false;
  SceneRec noatt(&ui_graph_, &scene_graph_, config, rng);
  EXPECT_EQ(noatt.name(), "SceneRec-noatt");
}

TEST_F(ModelsTest, SceneRecVariantsSatisfyContract) {
  for (const char* name :
       {"SceneRec-noitem", "SceneRec-nosce", "SceneRec-noatt"}) {
    ModelContext context{&ui_graph_, &scene_graph_};
    ModelFactoryConfig config;
    config.embedding_dim = 8;
    config.max_neighbors = 6;
    auto model_or = MakeRecommender(name, context, config);
    ASSERT_TRUE(model_or.ok()) << name;
    CheckTrainingContract(**model_or);
    CheckDeterministicInference(**model_or);
  }
}

TEST_F(ModelsTest, SceneRecVariantsHaveDifferentParameterCounts) {
  ModelContext context{&ui_graph_, &scene_graph_};
  ModelFactoryConfig config;
  config.embedding_dim = 8;
  auto full = MakeRecommender("SceneRec", context, config);
  auto nosce = MakeRecommender("SceneRec-nosce", context, config);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(nosce.ok());
  // Removing category/scene layers removes their embeddings and fusion.
  EXPECT_GT((*full)->NumParameters(), (*nosce)->NumParameters());
}

TEST_F(ModelsTest, SceneRecAttentionScoreReflectsSharedScenes) {
  Rng rng(12);
  SceneRecConfig config;
  config.embedding_dim = 8;
  SceneRec model(&ui_graph_, &scene_graph_, config, rng);
  // The attention score is a cosine in [-1, 1] and deterministic.
  const float a = model.AverageAttentionScore(0, 5);
  const float b = model.AverageAttentionScore(0, 5);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, -1.001f);
  EXPECT_LE(a, 1.001f);
}

TEST_F(ModelsTest, FactoryBuildsEveryTable2Model) {
  ModelContext context{&ui_graph_, &scene_graph_};
  ModelFactoryConfig config;
  config.embedding_dim = 8;
  config.ncf_dim = 4;
  config.gnn_depth = 1;
  config.max_neighbors = 6;
  for (const std::string& name : Table2ModelNames()) {
    auto model_or = MakeRecommender(name, context, config);
    ASSERT_TRUE(model_or.ok()) << name << ": " << model_or.status().ToString();
    EXPECT_EQ((*model_or)->name(), name);
    EXPECT_GT((*model_or)->NumParameters(), 0);
  }
  EXPECT_EQ(Table2ModelNames().size(), 10u);
}

TEST_F(ModelsTest, FactoryRejectsUnknownAndMissingGraphs) {
  ModelContext context{&ui_graph_, &scene_graph_};
  ModelFactoryConfig config;
  EXPECT_FALSE(MakeRecommender("SVD++", context, config).ok());
  // The four baselines outside Table 2 are no longer factory models.
  for (const char* retired : {"ItemPop", "ItemRank", "GCMC", "KGCN"}) {
    auto model = MakeRecommender(retired, context, config);
    ASSERT_FALSE(model.ok()) << retired;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << retired;
  }

  ModelContext no_scene{&ui_graph_, nullptr};
  EXPECT_FALSE(MakeRecommender("KGAT", no_scene, config).ok());
  EXPECT_FALSE(MakeRecommender("SceneRec", no_scene, config).ok());
  EXPECT_TRUE(MakeRecommender("BPR-MF", no_scene, config).ok());

  ModelContext nothing{nullptr, nullptr};
  EXPECT_FALSE(MakeRecommender("BPR-MF", nothing, config).ok());
}

// -- Propagation graphs -----------------------------------------------------------

TEST_F(ModelsTest, UserItemPropagationGraphIsSymmetric) {
  PropagationGraph prop = BuildUserItemPropagationGraph(ui_graph_);
  EXPECT_EQ(prop.num_nodes(), ui_graph_.num_users() + ui_graph_.num_items());
  EXPECT_EQ(prop.adjacency.num_edges(), 2 * ui_graph_.num_interactions());
  // Every user-item edge has its mirror.
  for (int64_t u = 0; u < ui_graph_.num_users(); ++u) {
    for (int64_t i : ui_graph_.ItemsOfUser(u)) {
      EXPECT_TRUE(prop.adjacency.HasEdge(prop.UserNode(u), prop.ItemNode(i)));
      EXPECT_TRUE(prop.adjacency.HasEdge(prop.ItemNode(i), prop.UserNode(u)));
    }
  }
  // Normalization weights are 1/sqrt(d_s d_t) in (0, 1].
  ASSERT_EQ(static_cast<int64_t>(prop.norm_weights->size()),
            prop.adjacency.num_edges());
  for (float w : *prop.norm_weights) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LE(w, 1.0f);
  }
}

TEST_F(ModelsTest, KgatGraphContainsSceneEntities) {
  KgatGraph kg = BuildKgatGraph(ui_graph_, scene_graph_);
  EXPECT_EQ(kg.propagation.num_extra, scene_graph_.num_scenes());
  EXPECT_EQ(static_cast<int64_t>(kg.edge_relation.size()),
            kg.propagation.adjacency.num_edges());
  // At least one item-scene edge with the right relation tags.
  std::set<int32_t> relations(kg.edge_relation.begin(),
                              kg.edge_relation.end());
  EXPECT_TRUE(relations.count(KgatGraph::kRelationInteract));
  EXPECT_TRUE(relations.count(KgatGraph::kRelationBelongsTo));
  EXPECT_TRUE(relations.count(KgatGraph::kRelationIncludes));
}

// -- Neighbor capping ----------------------------------------------------------------

TEST(NeighborUtilTest, ReturnsAllWhenUnderCap) {
  std::vector<int64_t> neighbors{1, 2, 3};
  auto capped = CapNeighbors(neighbors, 10, nullptr);
  EXPECT_EQ(capped, neighbors);
}

TEST(NeighborUtilTest, DeterministicStrideWithoutRng) {
  std::vector<int64_t> neighbors;
  for (int64_t i = 0; i < 100; ++i) neighbors.push_back(i);
  auto a = CapNeighbors(neighbors, 10, nullptr);
  auto b = CapNeighbors(neighbors, 10, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
  // Spread across the range, not just a prefix.
  EXPECT_GT(a.back(), 50);
}

TEST(NeighborUtilTest, RandomSampleDistinctWithRng) {
  std::vector<int64_t> neighbors;
  for (int64_t i = 0; i < 50; ++i) neighbors.push_back(i * 2);
  Rng rng(13);
  auto sample = CapNeighbors(neighbors, 12, &rng);
  EXPECT_EQ(sample.size(), 12u);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 12u);
  for (int64_t v : sample) EXPECT_EQ(v % 2, 0);
}

// -- SpMM --------------------------------------------------------------------------

TEST(SpMMTest, MatchesDenseAggregation) {
  // adjacency: node0 -> {1, 2}; node1 -> {0}; node2 -> {}.
  CsrGraph adj = CsrGraph::FromEdges(
      3, 3, {{0, 1, 1.0f}, {0, 2, 0.5f}, {1, 0, 2.0f}});
  Tensor x = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6},
                                /*requires_grad=*/true);
  Tensor out = SpMM(&adj, nullptr, x);
  // row0 = 1*[3,4] + 0.5*[5,6] = [5.5, 7]; row1 = 2*[1,2]; row2 = 0.
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2, 1), 0.0f);

  // Backward: d x = A^T g with g = all ones.
  Backward(Sum(out));
  // x row0 receives from node1 (w=2): 2; row1 from node0 (w=1): 1;
  // row2 from node0 (w=0.5): 0.5.
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[4], 0.5f);
}

TEST(SpMMTest, CustomEdgeWeightsOverrideCsrWeights) {
  CsrGraph adj = CsrGraph::FromEdges(2, 2, {{0, 1, 100.0f}});
  auto weights = std::make_shared<const std::vector<float>>(
      std::vector<float>{0.25f});
  Tensor x = Tensor::FromVector(Shape({2, 1}), {3.0f, 8.0f});
  Tensor out = SpMM(&adj, weights, x);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);  // 0.25 * 8
}

}  // namespace
}  // namespace scenerec
