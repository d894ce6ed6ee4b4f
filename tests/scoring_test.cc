// Cross-model tests of the block-scoring contract (docs/serving.md): for
// every factory model — batching fast paths and per-pair fallbacks alike —
// a row of a full-catalog ScoreBlock must be bitwise the one-row block
// Score runs, and a parallel block sweep must reproduce the serial per-pair
// metrics exactly. Runs under TSan (the parallel block sweep) and
// ASan+UBSan (span/buffer arithmetic) via tools/check.sh.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/repr_cache.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "nn/optimizer.h"
#include "nn/snapshot.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

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

// The core contract: out[r] of one full-catalog block does not depend on
// the other rows, so it is bitwise equal to the per-pair Score (a one-row
// block), for every factory model (fast path or fallback).
TEST_F(ScoringTest, ScoreBlockIsBitwiseEqualToPerPairScoreForAllModels) {
  for (const std::string& name : Table2ModelNames()) {
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

// Edge case: an empty candidate block is a no-op for every model.
TEST_F(ScoringTest, EmptyBlockIsNoOp) {
  for (const std::string& name : Table2ModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    model->ScoreBlock(0, std::span<const int64_t>(), std::span<float>());
  }
}

// Parallel block scoring (concurrent ScoreBlock on pool threads, reading
// the caches PrepareParallelScoring filled) reproduces the serial per-pair
// metrics bitwise. This is the TSan-critical sweep.
TEST_F(ScoringTest, ParallelBlockFullRankingMatchesSerialPerPair) {
  for (const char* name :
       {"SceneRec", "SceneRec-nosce", "BPR-MF", "NGCF"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const BlockScoreFn per_pair = testing::PairScorer(
        [&](int64_t user, int64_t item) { return model->Score(user, item); });
    const RankingMetrics serial = EvaluateFullRanking(
        per_pair, train_graph_, split_.test, 10, nullptr);
    ThreadPool pool(4);
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    const RankingMetrics parallel = EvaluateFullRanking(
        model->BlockScorer(), train_graph_, split_.test, 10, &pool);
    EXPECT_DOUBLE_EQ(serial.hr, parallel.hr);
    EXPECT_DOUBLE_EQ(serial.ndcg, parallel.ndcg);
    EXPECT_DOUBLE_EQ(serial.mrr, parallel.mrr);
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

/// Every eval table of a SceneRec, read through its public paths: M (the
/// export), the user reprs and the full-catalog scores of three users (which
/// are computed from P).
struct EvalTables {
  std::vector<float> m, users, scores;
};

EvalTables ReadEvalTables(SceneRec& model, int64_t num_users,
                          const std::vector<int64_t>& items) {
  EvalTables t;
  const RetrievalEmbeddings m = model.ExportItemEmbeddings();
  t.m.assign(m.items, m.items + m.num_items * m.dim);
  std::vector<float> query(static_cast<size_t>(model.RetrievalDim()));
  for (int64_t u = 0; u < num_users; ++u) {
    model.WriteRetrievalQuery(u, query);
    t.users.insert(t.users.end(), query.begin(), query.end());
  }
  std::vector<float> block(items.size());
  for (const int64_t user : {int64_t{0}, int64_t{7}, num_users - 1}) {
    model.ScoreBlock(user, items, block);
    t.scores.insert(t.scores.end(), block.begin(), block.end());
  }
  return t;
}

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want, const char* table) {
  ASSERT_EQ(got.size(), want.size()) << table;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << table << " cell " << i;
  }
}

void ExpectSameTables(const EvalTables& got, const EvalTables& want) {
  ExpectBitwiseEqual(got.m, want.m, "M");
  ExpectBitwiseEqual(got.users, want.users, "user reprs");
  ExpectBitwiseEqual(got.scores, want.scores, "scores");
}

uint64_t KernelFlops() {
  return telemetry::Telemetry::Snapshot().CounterValue("kernels/flops");
}

// OnEvalBegin keeps the eval tables of a model whose parameters were not
// written (the re-publish of a live model computes nothing), and after any
// kind of parameter write it recomputes them: every M row, user repr and
// score is then bitwise that of a freshly built model holding the same
// parameters.
TEST_F(ScoringTest, OnEvalBeginKeepsTablesUntilAParameterIsWritten) {
  const std::vector<int64_t> items = AllItems();
  const int64_t num_users = dataset_.num_users;
  const std::string snapshot_path = ::testing::TempDir() +
                                    "scoring_test_stamp_" +
                                    std::to_string(getpid()) + ".srsnap";
  ThreadPool pool(4);
  telemetry::Telemetry::SetEnabled(true);
  for (const char* name : kSceneRecVariants) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    auto* scene_rec = dynamic_cast<SceneRec*>(model.get());
    ASSERT_NE(scene_rec, nullptr);

    // Built the way a fresh model would be, then given `model`'s values.
    const auto fresh_tables = [&] {
      std::unique_ptr<Recommender> fresh = Make(name);
      std::vector<Tensor> src = model->Parameters();
      std::vector<Tensor> dst = fresh->Parameters();
      for (size_t i = 0; i < src.size(); ++i) {
        dst[i].mutable_value() = src[i].value();
      }
      fresh->OnEvalBegin();
      EXPECT_TRUE(fresh->PrepareParallelScoring(pool));
      return ReadEvalTables(*dynamic_cast<SceneRec*>(fresh.get()), num_users,
                            items);
    };
    const auto written_then_prepared = [&] {
      model->OnEvalBegin();
      EXPECT_TRUE(model->PrepareParallelScoring(pool));
      return ReadEvalTables(*scene_rec, num_users, items);
    };

    // A user memo filled first, then a parameter write, then an export: the
    // stale user row must not survive.
    std::vector<float> stale(static_cast<size_t>(model->RetrievalDim()));
    model->WriteRetrievalQuery(3, stale);
    for (Tensor& p : model->Parameters()) p.mutable_value()[0] += 0.25f;
    model->ExportItemEmbeddings();
    std::vector<float> query(stale.size());
    model->WriteRetrievalQuery(3, query);
    EXPECT_NE(query, stale);
    ExpectSameTables(written_then_prepared(), fresh_tables());

    // A direct value write, then the two-stage publish sequence: an export
    // (which recomputes) and a lazy-mode prepare, which then finds the item
    // side done and runs no user sweep, so it computes nothing.
    model->Parameters().back().mutable_value()[0] -= 0.5f;
    model->AttachUserReprCache(
        std::make_shared<ReprCache>(ReprCache::Options{
            .capacity = num_users, .dim = model->UserReprDim()}),
        /*version=*/1);
    uint64_t before = KernelFlops();
    model->ExportItemEmbeddings();
    EXPECT_GT(KernelFlops(), before);
    before = KernelFlops();
    model->OnEvalBegin();
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    EXPECT_EQ(KernelFlops(), before);
    model->AttachUserReprCache(nullptr, 0);
    ExpectSameTables(written_then_prepared(), fresh_tables());

    // Full warm-up: once prepared, preparing again computes nothing.
    before = KernelFlops();
    model->OnEvalBegin();
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    EXPECT_EQ(KernelFlops(), before);

    // An optimizer step (sharded loss, which leaves the eval memos alone).
    {
      RmsPropOptimizer optimizer(model->Parameters(),
                                 OptimizerOptions{.learning_rate = 0.5f});
      model->PrepareShards(1);
      Rng rng(5);
      const std::vector<BprTriple> triples = {{0, 1, 2}, {7, 3, 4}};
      Backward(model->BatchLossShard(triples, 0, rng));
      optimizer.Step();
      optimizer.ZeroGrad();
    }
    ExpectSameTables(written_then_prepared(), fresh_tables());

    // A snapshot bind (of another model's parameters).
    {
      std::unique_ptr<Recommender> other = Make(name);
      for (Tensor& p : other->Parameters()) p.mutable_value()[0] *= -1.0f;
      ASSERT_TRUE(WriteSnapshot(*other, name, 1, snapshot_path).ok());
      auto snapshot = Snapshot::Open(snapshot_path);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      ASSERT_TRUE(BindSnapshot(*model, snapshot.value()).ok());
    }
    ExpectSameTables(written_then_prepared(), fresh_tables());
  }
  telemetry::Telemetry::SetEnabled(false);
  std::remove(snapshot_path.c_str());
}

// Each eval table has one writer, the blocked warm-up: a cold model's first
// ScoreBlock runs it on the calling thread for every item and every user,
// so the PrepareParallelScoring that follows computes nothing, a second
// block costs only the q Gemv (2d^2) and one AddActDotRows row per
// candidate (4d+1 each), and the scores are bitwise those of an
// identically built model that was prepared on four lanes first.
TEST_F(ScoringTest, ColdScoreBlockWarmsEveryTableSoPrepareComputesNothing) {
  const std::vector<int64_t> items = AllItems();
  const uint64_t n = items.size();
  ThreadPool pool(4);
  telemetry::Telemetry::SetEnabled(true);
  for (const char* name : kSceneRecVariants) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> prepared = Make(name);
    ASSERT_NE(prepared, nullptr);
    prepared->OnEvalBegin();
    ASSERT_TRUE(prepared->PrepareParallelScoring(pool));
    std::vector<float> want(n);
    prepared->ScoreBlock(5, items, want);

    std::unique_ptr<Recommender> cold = Make(name);
    ASSERT_NE(cold, nullptr);
    const uint64_t d = static_cast<uint64_t>(cold->UserReprDim());
    cold->OnEvalBegin();
    std::vector<float> first(n);
    cold->ScoreBlock(5, items, first);
    uint64_t before = KernelFlops();
    ASSERT_TRUE(cold->PrepareParallelScoring(pool));
    EXPECT_EQ(KernelFlops(), before);
    std::vector<float> second(n);
    before = KernelFlops();
    cold->ScoreBlock(5, items, second);
    EXPECT_EQ(KernelFlops() - before, 2 * d * d + n * (4 * d + 1));
    ExpectBitwiseEqual(first, want, "cold block");
    ExpectBitwiseEqual(second, want, "second block");
  }
  telemetry::Telemetry::SetEnabled(false);
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
  const BlockScoreFn concat =
      testing::PairScorer([&](int64_t user, int64_t item) {
        return ConcatScore(*model, user, item);
      });
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
  BlockScoreFn score = testing::PairScorer(
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
