// Measures the persistent parameter store (nn/snapshot.h) on a serving-size
// BPR-MF (2000 users x 20000 items x dim 64, ~5.6 MiB of parameter pages):
//
//   BM_SnapshotWrite        crash-safe versioned write (tmp + fsync +
//                           rename); bytes/second is the publish throughput
//   BM_SnapshotMmapOpen     cold process to first score through
//                           OpenRecommenderFromSnapshot (deferred
//                           construction + one mmap + manifest validation)
//
// The open's independence from table bytes is the point of the store.
// Recorded in BENCH_snapshot.json by tools/bench.sh and gated by
// tools/bench_diff via tools/check.sh stage 4.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/bipartite_graph.h"
#include "models/bpr_mf.h"
#include "models/factory.h"
#include "nn/snapshot.h"

namespace scenerec {
namespace {

constexpr int64_t kUsers = 2000;
constexpr int64_t kItems = 20000;
constexpr int64_t kDim = 64;

struct BenchData {
  UserItemGraph graph;
  std::unique_ptr<BprMf> model;
  std::string snapshot_path;
  int64_t param_bytes = 0;
};

const BenchData& Data() {
  static const BenchData* data = [] {
    auto* d = new BenchData();
    // BPR-MF scores straight from its factor tables; an edgeless graph of
    // the right dimensions is all the factory context needs.
    d->graph = UserItemGraph::Build(kUsers, kItems, {});
    Rng rng(7);
    d->model = std::make_unique<BprMf>(kUsers, kItems, kDim, rng);
    d->param_bytes =
        d->model->NumParameters() * static_cast<int64_t>(sizeof(float));
    d->snapshot_path = "/tmp/scenerec_bench_snapshot.srsnap";
    SCENEREC_CHECK(
        WriteSnapshot(*d->model, "BPR-MF", 1, d->snapshot_path).ok());
    return d;
  }();
  return *data;
}

void BM_SnapshotWrite(benchmark::State& state) {
  const BenchData& data = Data();
  const std::string path = "/tmp/scenerec_bench_snapshot_write.srsnap";
  for (auto _ : state) {
    const Status s = WriteSnapshot(*data.model, "BPR-MF", 1, path);
    SCENEREC_CHECK(s.ok()) << s.ToString();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * data.param_bytes);
}
BENCHMARK(BM_SnapshotWrite)->Unit(benchmark::kMillisecond);

void BM_SnapshotMmapOpen(benchmark::State& state) {
  const BenchData& data = Data();
  ModelContext context;
  context.user_item = &data.graph;
  ModelFactoryConfig config;
  config.embedding_dim = kDim;
  for (auto _ : state) {
    auto model =
        OpenRecommenderFromSnapshot(data.snapshot_path, context, config);
    SCENEREC_CHECK(model.ok()) << model.status().ToString();
    benchmark::DoNotOptimize(model.value()->Score(0, 0));
  }
  state.SetBytesProcessed(state.iterations() * data.param_bytes);
}
BENCHMARK(BM_SnapshotMmapOpen)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scenerec

BENCHMARK_MAIN();
