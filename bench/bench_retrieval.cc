// Measures two-stage retrieval (docs/retrieval.md) against the PR 5
// full-catalog block-ranking baseline on the largest synthetic catalog:
// 50k items, dim-64 BPR-MF with clustered item embeddings (the regime ANN
// indexes exist for — real trained embeddings cluster by taste/category).
//
//   BM_TopNFullCatalogBlock   exact ScoreBlock sweep of all 50k items
//   BM_TopNTwoStageExact      blocked exact top-K index + exact rerank
//   BM_TopNTwoStageIvf        IVF candidate generation + exact rerank
//   BM_IndexBuild*            one-time index construction cost
//
// The IVF rows carry a recall_at_100 counter (vs the exact backend, nlist
// 128 / nprobe 8) — the acceptance gate pairs that recall >= 0.95 with a
// >= 5x latency win over BM_TopNFullCatalogBlock. tools/bench.sh records
// the suite in BENCH_retrieval.json for the bench_diff regression gate.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/bpr_mf.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"

namespace scenerec {
namespace {

constexpr int64_t kNumUsers = 2000;
constexpr int64_t kNumItems = 50000;
constexpr int64_t kDim = 64;
constexpr int64_t kNumClusters = 96;  // ground-truth structure, not nlist
constexpr int64_t kTopN = 10;
constexpr int64_t kCandidates = 500;
constexpr int64_t kNlist = 128;
constexpr int64_t kNprobe = 8;

struct BenchData {
  std::unique_ptr<BprMf> model;
  UserItemGraph graph;
  std::unique_ptr<ItemIndex> exact;
  std::unique_ptr<ItemIndex> ivf;
  double ivf_recall = 0.0;
};

IndexBuildConfig ConfigFor(IndexKind kind) {
  IndexBuildConfig config;
  config.kind = kind;
  config.nlist = kNlist;
  config.nprobe = kNprobe;
  return config;
}

/// Overwrites the randomly initialized tables with clustered embeddings:
/// items scatter around kNumClusters centers, users sit near a center so
/// their top items concentrate in a few inverted lists.
void PlantClusteredEmbeddings(BprMf& model, Rng& rng) {
  std::vector<float> centers(static_cast<size_t>(kNumClusters * kDim));
  for (float& v : centers) {
    v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  }
  std::vector<Tensor> params;
  model.CollectParameters(&params);
  SCENEREC_CHECK_EQ(params.size(), 3u);  // user table, item table, bias
  auto plant = [&](Tensor& table, int64_t rows, double noise) {
    float* data = table.mutable_value().data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* c =
          &centers[static_cast<size_t>((rng.NextInt(
                       static_cast<uint64_t>(kNumClusters))) *
                   static_cast<uint64_t>(kDim))];
      for (int64_t d = 0; d < kDim; ++d) {
        data[r * kDim + d] =
            c[d] + static_cast<float>((rng.NextDouble() * 2.0 - 1.0) * noise);
      }
    }
  };
  plant(params[0], kNumUsers, /*noise=*/0.15);
  plant(params[1], kNumItems, /*noise=*/0.25);
  float* bias = params[2].mutable_value().data();
  for (int64_t i = 0; i < kNumItems; ++i) {
    bias[i] = static_cast<float>((rng.NextDouble() - 0.5) * 0.01);
  }
}

const BenchData& Data() {
  static const BenchData* data = [] {
    auto* d = new BenchData();
    Rng rng(17);
    d->model = std::make_unique<BprMf>(kNumUsers, kNumItems, kDim, rng);
    PlantClusteredEmbeddings(*d->model, rng);
    d->model->OnEvalBegin();
    // Sparse training interactions: enough for the masking path to do real
    // work per query without dominating setup time.
    std::vector<Interaction> interactions;
    for (int64_t u = 0; u < kNumUsers; ++u) {
      for (int64_t s = 0; s < 20; ++s) {
        interactions.push_back(
            {u, static_cast<int64_t>(rng.NextInt(
                    static_cast<uint64_t>(kNumItems)))});
      }
    }
    d->graph = UserItemGraph::Build(kNumUsers, kNumItems, interactions);
    d->exact = IndexBuilder(ConfigFor(IndexKind::kExact))
                   .Build(*d->model).value();
    d->ivf = IndexBuilder(ConfigFor(IndexKind::kIvf))
                 .Build(*d->model).value();
    // IVF recall@100 vs exact over a user sample — reported as the
    // recall_at_100 counter on its two-stage row.
    std::vector<int64_t> sample;
    for (int64_t u = 0; u < kNumUsers; u += 10) sample.push_back(u);
    d->ivf_recall =
        RetrievalRecallAtK(*d->model, *d->ivf, *d->exact, 100, sample);
    return d;
  }();
  return *data;
}

// -- Top-N serving latency -----------------------------------------------------

void BM_TopNFullCatalogBlock(benchmark::State& state) {
  const BenchData& data = Data();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs =
        TopNRecommendations(data.model->BlockScorer(), data.graph, user,
                            kTopN);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % kNumUsers;
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
}
BENCHMARK(BM_TopNFullCatalogBlock)->Unit(benchmark::kMicrosecond);

void RunTwoStage(benchmark::State& state, const ItemIndex& index,
                 double recall) {
  const BenchData& data = Data();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs = TwoStageTopN(*data.model, index, data.graph, user, kTopN,
                             kCandidates);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % kNumUsers;
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
  if (recall > 0.0) state.counters["recall_at_100"] = recall;
}

void BM_TopNTwoStageExact(benchmark::State& state) {
  RunTwoStage(state, *Data().exact, /*recall=*/1.0);
}
BENCHMARK(BM_TopNTwoStageExact)->Unit(benchmark::kMicrosecond);

void BM_TopNTwoStageIvf(benchmark::State& state) {
  RunTwoStage(state, *Data().ivf, Data().ivf_recall);
}
BENCHMARK(BM_TopNTwoStageIvf)->Unit(benchmark::kMicrosecond);

// -- Index construction --------------------------------------------------------

void RunBuild(benchmark::State& state, IndexKind kind) {
  const BenchData& data = Data();
  const IndexBuilder builder(ConfigFor(kind));
  for (auto _ : state) {
    auto index = builder.Build(*data.model);
    SCENEREC_CHECK(index.ok());
    benchmark::DoNotOptimize(index.value()->num_items());
  }
  state.SetItemsProcessed(state.iterations() * kNumItems);
}

void BM_IndexBuildExact(benchmark::State& state) {
  RunBuild(state, IndexKind::kExact);
}
BENCHMARK(BM_IndexBuildExact)->Unit(benchmark::kMillisecond);

void BM_IndexBuildIvf(benchmark::State& state) {
  RunBuild(state, IndexKind::kIvf);
}
BENCHMARK(BM_IndexBuildIvf)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scenerec

BENCHMARK_MAIN();
