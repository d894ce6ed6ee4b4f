// Measures block scoring on the two inference surfaces that score many
// candidates: the full-ranking protocol and Top-N serving, for SceneRec
// (one q GEMV plus one AddActDotRows call per kScoreBlockSize candidates)
// and BPR-MF (one kernels::Dot sweep per block).
// Eval caches are warmed before timing, so the rows measure steady-state
// scoring, not cache fills. tools/bench.sh records the suite in
// BENCH_scoring.json for the bench_diff regression gate.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "models/bpr_mf.h"
#include "models/scene_rec.h"

namespace scenerec {
namespace {

struct BenchData {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph graph;
  SceneGraph scene;
};

const BenchData& Data() {
  static const BenchData* data = [] {
    auto* d = new BenchData();
    SyntheticConfig config;
    config.name = "bench-scoring";
    config.num_users = 100;
    config.num_items = 400;
    config.num_categories = 12;
    config.num_scenes = 8;
    config.sessions_per_user = 6;
    config.session_length = 6;
    auto dataset = GenerateSyntheticDataset(config, 33);
    SCENEREC_CHECK(dataset.ok());
    d->dataset = std::move(dataset).value();
    Rng rng(1);
    auto split = MakeLeaveOneOutSplit(d->dataset, /*num_negatives=*/50, rng);
    SCENEREC_CHECK(split.ok());
    d->split = std::move(split).value();
    d->graph = UserItemGraph::Build(d->dataset.num_users, d->dataset.num_items,
                                    d->split.train);
    d->scene = d->dataset.BuildSceneGraph();
    return d;
  }();
  return *data;
}

/// Fresh SceneRec with warm eval tables (the first, cold ScoreBlock of one
/// throwaway full-ranking pass runs the warm-up), so the timed loop
/// measures pure scoring.
std::unique_ptr<SceneRec> WarmSceneRec() {
  const BenchData& data = Data();
  SceneRecConfig config;
  config.embedding_dim = 16;
  Rng rng(9);
  auto model = std::make_unique<SceneRec>(&data.graph, &data.scene, config, rng);
  model->OnEvalBegin();
  EvaluateFullRanking(model->BlockScorer(), data.graph, data.split.test, 10);
  return model;
}

std::unique_ptr<BprMf> WarmBprMf() {
  const BenchData& data = Data();
  Rng rng(9);
  auto model = std::make_unique<BprMf>(data.dataset.num_users,
                                       data.dataset.num_items, 32, rng);
  model->OnEvalBegin();
  return model;
}

// -- Full-ranking protocol -----------------------------------------------------

void BM_FullRankingSceneRecBlock(benchmark::State& state) {
  const BenchData& data = Data();
  auto model = WarmSceneRec();
  for (auto _ : state) {
    RankingMetrics metrics = EvaluateFullRanking(
        model->BlockScorer(), data.graph, data.split.test, 10);
    benchmark::DoNotOptimize(metrics.ndcg);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.split.test.size()));
}
BENCHMARK(BM_FullRankingSceneRecBlock)->Unit(benchmark::kMillisecond);

void BM_FullRankingBprMfBlock(benchmark::State& state) {
  const BenchData& data = Data();
  auto model = WarmBprMf();
  for (auto _ : state) {
    RankingMetrics metrics = EvaluateFullRanking(
        model->BlockScorer(), data.graph, data.split.test, 10);
    benchmark::DoNotOptimize(metrics.ndcg);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.split.test.size()));
}
BENCHMARK(BM_FullRankingBprMfBlock)->Unit(benchmark::kMillisecond);

// -- Top-N serving -------------------------------------------------------------

void BM_TopNSceneRecBlock(benchmark::State& state) {
  const BenchData& data = Data();
  auto model = WarmSceneRec();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs = TopNRecommendations(model->BlockScorer(), data.graph, user, 10);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % data.dataset.num_users;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopNSceneRecBlock)->Unit(benchmark::kMicrosecond);

void BM_TopNBprMfBlock(benchmark::State& state) {
  const BenchData& data = Data();
  auto model = WarmBprMf();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs = TopNRecommendations(model->BlockScorer(), data.graph, user, 10);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % data.dataset.num_users;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopNBprMfBlock)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace scenerec

BENCHMARK_MAIN();
