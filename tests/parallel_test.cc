// Tests for the parallel execution layer: ThreadPool semantics, concurrent
// autograd accumulation, sharded training vs. serial training, and parallel
// vs. serial evaluation equivalence.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/bpr_mf.h"
#include "models/scene_rec.h"
#include "tensor/ops.h"
#include "train/grid_search.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, /*grain=*/7, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroIterationsRunsNothing) {
  ThreadPool pool(4);
  std::atomic<bool> ran{false};
  pool.ParallelFor(0, 1, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int64_t sum = 0;  // not atomic: single-threaded by contract
  pool.ParallelFor(100, 10, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 100 * 99 / 2);
}

TEST(ThreadPoolTest, PropagatesChunkException) {
  ThreadPool pool(4);
  std::atomic<int64_t> executed{0};
  try {
    pool.ParallelFor(64, 1, [&](int64_t begin, int64_t end) {
      executed.fetch_add(end - begin);
      if (begin <= 13 && 13 < end) throw std::runtime_error("chunk failure");
    });
    FAIL() << "ParallelFor swallowed the chunk exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failure");
  }
  // The contract promises the loop never leaves work half-dispatched.
  EXPECT_EQ(executed.load(), 64);
  // The pool is still usable after an exception.
  std::atomic<int64_t> after{0};
  pool.ParallelFor(10, 1,
                   [&](int64_t b, int64_t e) { after.fetch_add(e - b); });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      std::atomic<int64_t> local{0};
      // On a worker this runs inline; on the caller lane it shares the pool.
      pool.ParallelFor(10, 1, [&](int64_t b, int64_t e) {
        local.fetch_add(e - b);
      });
      total.fetch_add(local.load());
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, InWorkerThreadFalseOutsidePools) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  pool.ParallelFor(4, 1, [](int64_t, int64_t) {});
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
  EXPECT_EQ(ResolveThreadCount(0), ThreadPool::HardwareConcurrency());
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
}

TEST(ThreadPoolTest, DefaultPoolFollowsConfiguredSize) {
  SetDefaultThreadPoolThreads(3);
  EXPECT_EQ(DefaultThreadPool()->num_threads(), 3);
  SetDefaultThreadPoolThreads(1);
  EXPECT_EQ(DefaultThreadPool()->num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Concurrent autograd accumulation
// ---------------------------------------------------------------------------

// Many independent graphs run Backward concurrently into one shared leaf;
// the accumulated gradient must equal the serial sum (the per-use
// contributions are identical floats, so the sum is order-independent here).
TEST(ParallelAutogradTest, ConcurrentBackwardMatchesSerial) {
  Rng rng(7);
  Tensor w = Tensor::RandomUniform({8, 4}, -1.0f, 1.0f, rng,
                                   /*requires_grad=*/true);
  auto loss_for = [&w](int64_t g) {
    Tensor r = Row(w, g % 8);
    return Sum(Mul(r, r));
  };
  constexpr int64_t kGraphs = 32;

  w.ZeroGrad();
  for (int64_t g = 0; g < kGraphs; ++g) Backward(loss_for(g));
  const std::vector<float> serial = w.grad();

  w.ZeroGrad();
  ThreadPool pool(4);
  pool.ParallelFor(kGraphs, 1, [&](int64_t begin, int64_t end) {
    for (int64_t g = begin; g < end; ++g) Backward(loss_for(g));
  });
  ASSERT_EQ(w.grad().size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(w.grad()[i], serial[i], 1e-5f) << "component " << i;
  }
}

// ---------------------------------------------------------------------------
// Training / evaluation fixture (mirrors train_test.cc)
// ---------------------------------------------------------------------------

class ParallelTrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "parallel-test";
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

TEST_F(ParallelTrainTest, ConfigRejectsNegativeThreads) {
  TrainConfig config;
  config.threads = -1;
  EXPECT_FALSE(config.Validate().ok());
  config.threads = 0;  // 0 = hardware concurrency is valid
  EXPECT_TRUE(config.Validate().ok());
}

// Sharded training sees the exact same batches as serial training (the shard
// generators derive from an independent stream), so for a sampling-free model
// like BPR-MF the two runs differ only by float summation order. Losses and
// metrics must agree within a small tolerance.
TEST_F(ParallelTrainTest, ShardedTrainingMatchesSerialWithinTolerance) {
  auto run = [&](int64_t threads) {
    Rng rng(2);
    BprMf model(dataset_.num_users, dataset_.num_items, 16, rng);
    TrainConfig config;
    config.epochs = 4;
    config.learning_rate = 5e-3f;
    config.patience = 0;
    config.threads = threads;
    auto result = TrainAndEvaluate(model, split_, train_graph_, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const TrainResult serial = run(1);
  const TrainResult parallel = run(4);

  ASSERT_EQ(serial.epoch_losses.size(), parallel.epoch_losses.size());
  for (size_t i = 0; i < serial.epoch_losses.size(); ++i) {
    EXPECT_NEAR(serial.epoch_losses[i], parallel.epoch_losses[i],
                0.02 * serial.epoch_losses[i] + 1e-3)
        << "epoch " << i;
  }
  EXPECT_NEAR(serial.test.ndcg, parallel.test.ndcg, 0.05);
  EXPECT_NEAR(serial.test.hr, parallel.test.hr, 0.08);
  EXPECT_NEAR(serial.test.mrr, parallel.test.mrr, 0.05);
}

// Parallel evaluation reduces per-instance metrics in instance order, so it
// is bitwise identical to the serial protocol.
TEST_F(ParallelTrainTest, ParallelEvaluationIsBitwiseIdentical) {
  Rng rng(3);
  BprMf model(dataset_.num_users, dataset_.num_items, 16, rng);
  model.OnEvalBegin();
  const RankingMetrics serial =
      EvaluateRanking(model.BlockScorer(), split_.test, 10, nullptr);
  const RankingMetrics serial_full = EvaluateFullRanking(
      model.BlockScorer(), train_graph_, split_.test, 10, nullptr);

  ThreadPool pool(4);
  ASSERT_TRUE(model.PrepareParallelScoring(pool));
  const RankingMetrics parallel =
      EvaluateRanking(model.BlockScorer(), split_.test, 10, &pool);
  const RankingMetrics parallel_full = EvaluateFullRanking(
      model.BlockScorer(), train_graph_, split_.test, 10, &pool);

  EXPECT_DOUBLE_EQ(serial.hr, parallel.hr);
  EXPECT_DOUBLE_EQ(serial.ndcg, parallel.ndcg);
  EXPECT_DOUBLE_EQ(serial.mrr, parallel.mrr);
  EXPECT_EQ(serial.num_instances, parallel.num_instances);
  EXPECT_DOUBLE_EQ(serial_full.hr, parallel_full.hr);
  EXPECT_DOUBLE_EQ(serial_full.ndcg, parallel_full.ndcg);
  EXPECT_DOUBLE_EQ(serial_full.mrr, parallel_full.mrr);
}

// With sampling disabled (max_neighbors above every degree) SceneRec's
// forward pass is deterministic, so the sum of shard losses over a partition
// must equal the serial batch loss up to float summation order.
TEST_F(ParallelTrainTest, SceneRecShardLossesSumToSerialLoss) {
  SceneRecConfig config;
  config.embedding_dim = 8;
  config.max_neighbors = 100000;
  Rng rng(5);
  SceneRec model(&train_graph_, &scene_graph_, config, rng);

  Rng batch_rng(9);
  BprBatcher batcher(split_.train, train_graph_);
  std::vector<BprTriple> triples = batcher.NextEpoch(batch_rng);
  ASSERT_GE(triples.size(), 24u);
  triples.resize(24);
  const std::span<const BprTriple> batch(triples);

  const float serial_loss = model.BatchLoss(batch).scalar();

  model.PrepareShards(3);
  float shard_sum = 0.0f;
  for (int64_t s = 0; s < 3; ++s) {
    Rng shard_rng(100 + static_cast<uint64_t>(s));
    shard_sum +=
        model.BatchLossShard(batch.subspan(static_cast<size_t>(s) * 8, 8), s,
                             shard_rng)
            .scalar();
  }
  EXPECT_NEAR(shard_sum, serial_loss, 2e-3f * std::abs(serial_loss) + 1e-4f);
}

// A serial sweep's first (cold) ScoreBlock runs the warm-up on the calling
// thread; PrepareParallelScoring runs it on four lanes. Per table entry the
// arithmetic is identical, so parallel SceneRec evaluation of an identically
// built model matches the serial sweep bitwise.
TEST_F(ParallelTrainTest, SceneRecParallelScoringMatchesSerial) {
  SceneRecConfig config;
  config.embedding_dim = 8;
  Rng serial_rng(6);
  SceneRec serial_model(&train_graph_, &scene_graph_, config, serial_rng);
  serial_model.OnEvalBegin();
  const RankingMetrics serial =
      EvaluateRanking(serial_model.BlockScorer(), split_.test, 10, nullptr);

  Rng rng(6);
  SceneRec model(&train_graph_, &scene_graph_, config, rng);
  ThreadPool pool(4);
  model.OnEvalBegin();
  ASSERT_TRUE(model.PrepareParallelScoring(pool));
  const RankingMetrics parallel =
      EvaluateRanking(model.BlockScorer(), split_.test, 10, &pool);

  EXPECT_DOUBLE_EQ(serial.hr, parallel.hr);
  EXPECT_DOUBLE_EQ(serial.ndcg, parallel.ndcg);
  EXPECT_DOUBLE_EQ(serial.mrr, parallel.mrr);
}

// Cells of a parallel grid search train serially (threads=1 in the base
// config), so the sweep must reproduce the serial grid bitwise — including
// tie-breaking on the best cell.
TEST_F(ParallelTrainTest, ParallelGridSearchMatchesSerial) {
  auto run_grid = [&](int64_t default_pool_threads) {
    SetDefaultThreadPoolThreads(default_pool_threads);
    Rng rng(21);
    ModelBuilder builder = [&]() -> std::unique_ptr<Recommender> {
      return std::make_unique<BprMf>(dataset_.num_users, dataset_.num_items,
                                     8, rng);
    };
    TrainConfig config;
    config.epochs = 2;
    config.patience = 0;
    auto result = GridSearch(builder, split_, train_graph_, config,
                             {5e-3f, 1e-2f}, {0.0f, 1e-5f});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    SetDefaultThreadPoolThreads(1);
    return std::move(result).value();
  };
  const GridSearchResult serial = run_grid(1);
  const GridSearchResult parallel = run_grid(2);

  ASSERT_EQ(serial.entries.size(), parallel.entries.size());
  for (size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_EQ(serial.entries[i].learning_rate,
              parallel.entries[i].learning_rate);
    EXPECT_EQ(serial.entries[i].weight_decay,
              parallel.entries[i].weight_decay);
    EXPECT_DOUBLE_EQ(serial.entries[i].validation.ndcg,
                     parallel.entries[i].validation.ndcg);
    EXPECT_DOUBLE_EQ(serial.entries[i].test.ndcg,
                     parallel.entries[i].test.ndcg);
  }
  EXPECT_EQ(serial.best.learning_rate, parallel.best.learning_rate);
  EXPECT_EQ(serial.best.weight_decay, parallel.best.weight_decay);
  EXPECT_DOUBLE_EQ(serial.best.validation.ndcg, parallel.best.validation.ndcg);
}

}  // namespace
}  // namespace scenerec
