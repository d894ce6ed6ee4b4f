// Inspects SRSNAP1 model snapshots (src/nn/snapshot.h) and, with
// --selftest, exercises the whole persistent-parameter-store path end to
// end on a fresh mini model: train -> versioned snapshot write -> zero-copy
// mmap open -> bitwise score comparison -> retrieval index over the mapping.
//
//   snapshot_inspect <path.srsnap>      print the manifest
//   snapshot_inspect --stats <path>     manifest + per-tensor value stats
//                                       (faults the pages in)
//   snapshot_inspect --export-index[=kind] <path>
//                                       build a retrieval index straight off
//                                       the mapped BPR-MF item table (no
//                                       model rebuild, zero copy) and print
//                                       its structure; kind defaults to ivf
//   snapshot_inspect --selftest [dir]   end-to-end check; exit 0 iff PASS
//                                       (dir defaults to a fresh temp dir)
//
// tools/check.sh runs --selftest against every gate build, so a regression
// anywhere in the write/open/bind/index chain fails CI even if no unit
// test names it.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "nn/snapshot.h"
#include "retrieval/index_builder.h"
#include "retrieval/ivf_index.h"
#include "retrieval/two_stage.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

int Inspect(const std::string& path, bool stats) {
  auto snapshot_or = Snapshot::Open(path);
  if (!snapshot_or.ok()) {
    std::fprintf(stderr, "error: %s\n", snapshot_or.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const Snapshot> snapshot =
      std::move(snapshot_or).value();
  std::printf("snapshot   %s\n", snapshot->path().c_str());
  std::printf("tag        %s\n", snapshot->tag().c_str());
  std::printf("version    %" PRIu64 "\n", snapshot->version());
  std::printf("file bytes %zu\n", snapshot->file_bytes());
  std::printf("tensors    %zu\n", snapshot->tensors().size());
  int64_t total_floats = 0;
  for (size_t i = 0; i < snapshot->tensors().size(); ++i) {
    const SnapshotTensorEntry& entry = snapshot->tensors()[i];
    total_floats += entry.num_floats;
    std::printf("  [%3zu] %-12s %-12s offset=%-10lld floats=%lld", i,
                entry.name.c_str(), entry.shape.ToString().c_str(),
                static_cast<long long>(entry.offset),
                static_cast<long long>(entry.num_floats));
    if (stats && entry.num_floats > 0) {
      const float* data = snapshot->data(i);
      float lo = data[0], hi = data[0];
      double sum = 0.0;
      for (int64_t j = 0; j < entry.num_floats; ++j) {
        lo = std::min(lo, data[j]);
        hi = std::max(hi, data[j]);
        sum += data[j];
      }
      std::printf("  min=%+.4f max=%+.4f mean=%+.5f", lo, hi,
                  sum / static_cast<double>(entry.num_floats));
    }
    std::printf("\n");
  }
  std::printf("total      %lld floats (%.2f MiB of pages)\n",
              static_cast<long long>(total_floats),
              static_cast<double>(total_floats) * sizeof(float) /
                  (1024.0 * 1024.0));
  return 0;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "FAIL %s: %s\n", what, status.ToString().c_str());
  return 1;
}

/// Raw-table retrieval export from a BPR-MF snapshot: borrows the mapped
/// item-embedding table and bias pages directly (the snapshot pin keeps the
/// mapping alive), without rebuilding a model. The layout contract is
/// BPR-MF's CollectParameters order: param.0 user table, param.1 item
/// table, param.2 item bias.
StatusOr<RetrievalEmbeddings> ExportFromBprSnapshot(
    const std::shared_ptr<const Snapshot>& snapshot) {
  if (snapshot->tag() != "BPR-MF") {
    return Status::InvalidArgument(
        "--export-index reads raw BPR-MF tables; snapshot tag is '" +
        snapshot->tag() +
        "' (open other models via scenerec_cli --retrieval, which rebuilds "
        "the model first)");
  }
  const int64_t items_idx = snapshot->FindTensor("param.1");
  const int64_t bias_idx = snapshot->FindTensor("param.2");
  if (items_idx < 0 || bias_idx < 0) {
    return Status::InvalidArgument("snapshot manifest is missing param.1 "
                                   "(item table) or param.2 (item bias)");
  }
  const SnapshotTensorEntry& items =
      snapshot->tensors()[static_cast<size_t>(items_idx)];
  const SnapshotTensorEntry& bias =
      snapshot->tensors()[static_cast<size_t>(bias_idx)];
  if (items.shape.rank() != 2 || bias.shape.num_elements() !=
                                     items.shape.dim(0)) {
    return Status::InvalidArgument("unexpected BPR-MF tensor shapes: items " +
                                   items.shape.ToString() + ", bias " +
                                   bias.shape.ToString());
  }
  RetrievalEmbeddings emb;
  emb.num_items = items.shape.dim(0);
  emb.dim = items.shape.dim(1);
  emb.fidelity = RetrievalFidelity::kExactScores;
  emb.items = snapshot->data(static_cast<size_t>(items_idx));
  emb.bias = snapshot->data(static_cast<size_t>(bias_idx));
  emb.pin = snapshot;  // mapping outlives the index
  return emb;
}

int ExportIndex(const std::string& path, const std::string& kind_name) {
  auto snapshot_or = Snapshot::Open(path);
  if (!snapshot_or.ok()) return Fail("open", snapshot_or.status());
  const std::shared_ptr<const Snapshot> snapshot =
      std::move(snapshot_or).value();
  auto emb_or = ExportFromBprSnapshot(snapshot);
  if (!emb_or.ok()) return Fail("export", emb_or.status());

  auto kind_or = ParseIndexKind(kind_name);
  if (!kind_or.ok()) return Fail("kind", kind_or.status());
  IndexBuildConfig config;
  config.kind = kind_or.value();
  auto index_or = IndexBuilder(config).BuildFromEmbeddings(
      std::move(emb_or).value());
  if (!index_or.ok()) return Fail("build", index_or.status());
  const std::unique_ptr<ItemIndex>& index = index_or.value();

  std::printf("snapshot   %s (tag %s, v%" PRIu64 ")\n",
              snapshot->path().c_str(), snapshot->tag().c_str(),
              snapshot->version());
  std::printf("index      %s: %lld items, dim %lld\n", index->name().c_str(),
              static_cast<long long>(index->num_items()),
              static_cast<long long>(index->dim()));
  if (const auto* ivf = dynamic_cast<const IvfIndex*>(index.get())) {
    std::printf("ivf        nlist=%lld nprobe=%lld\n",
                static_cast<long long>(ivf->nlist()),
                static_cast<long long>(ivf->nprobe()));
    int64_t largest = 0, smallest = index->num_items();
    for (int64_t l = 0; l < ivf->nlist(); ++l) {
      const int64_t size =
          ivf->list_offsets()[l + 1] - ivf->list_offsets()[l];
      largest = std::max(largest, size);
      smallest = std::min(smallest, size);
    }
    std::printf("lists      %lld..%lld items (balanced target %.1f)\n",
                static_cast<long long>(smallest),
                static_cast<long long>(largest),
                static_cast<double>(index->num_items()) /
                    static_cast<double>(ivf->nlist()));
  }
  // A probe query against the first item's embedding: sanity-checks that
  // the zero-copy pages actually serve a search.
  std::vector<float> query(static_cast<size_t>(index->dim()));
  for (size_t d = 0; d < query.size(); ++d) {
    query[d] = snapshot->data(static_cast<size_t>(
        snapshot->FindTensor("param.1")))[d];
  }
  std::vector<Recommendation> out;
  SearchStats stats;
  index->Search(query, 5, &out, &stats);
  std::printf("probe      top-%zu for item-0 query (%lld scanned):", out.size(),
              static_cast<long long>(stats.items_scanned));
  for (const Recommendation& c : out) {
    std::printf(" %lld:%.3f", static_cast<long long>(c.item), c.score);
  }
  std::printf("\n");
  return 0;
}

/// Train a small BPR-MF, publish versioned snapshots, reopen the newest
/// zero-copy, and require bitwise-identical scores plus a working retrieval
/// index over the mapping. Hot swap under live traffic is covered by
/// scenerec_serve --selftest and tests/serve_test.cc.
int SelfTest(std::string dir) {
  if (dir.empty()) {
    char tmpl[] = "/tmp/scenerec_snapstore_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "FAIL cannot create temp dir\n");
      return 1;
    }
    dir = tmpl;
  }

  SyntheticConfig data_config;
  data_config.name = "snapshot-selftest";
  data_config.num_users = 40;
  data_config.num_items = 120;
  data_config.num_categories = 8;
  data_config.num_scenes = 5;
  data_config.sessions_per_user = 4;
  data_config.session_length = 5;
  auto dataset_or = GenerateSyntheticDataset(data_config, 7);
  if (!dataset_or.ok()) return Fail("dataset", dataset_or.status());
  const Dataset dataset = std::move(dataset_or).value();
  Rng rng(1);
  auto split_or = MakeLeaveOneOutSplit(dataset, /*num_negatives=*/20, rng);
  if (!split_or.ok()) return Fail("split", split_or.status());
  const LeaveOneOutSplit split = std::move(split_or).value();
  const UserItemGraph train_graph = UserItemGraph::Build(
      dataset.num_users, dataset.num_items, split.train);

  ModelContext context;
  context.user_item = &train_graph;
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 16;
  auto model_or = MakeRecommender("BPR-MF", context, factory_config);
  if (!model_or.ok()) return Fail("factory", model_or.status());
  std::unique_ptr<Recommender> trained = std::move(model_or).value();

  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.patience = 0;
  train_config.snapshot_dir = dir;
  train_config.snapshot_retain = 2;
  auto result_or = TrainAndEvaluate(*trained, split, train_graph,
                                    train_config);
  if (!result_or.ok()) return Fail("train", result_or.status());
  const TrainResult result = std::move(result_or).value();
  if (result.last_snapshot_path.empty()) {
    std::fprintf(stderr, "FAIL trainer wrote no snapshot\n");
    return 1;
  }
  std::printf("trained BPR-MF, newest snapshot v%" PRIu64 " at %s\n",
              result.last_snapshot_version,
              result.last_snapshot_path.c_str());

  // NOTE: the trainer leaves `trained` at its best-validation parameters,
  // which are exactly what the newest snapshot holds.
  SnapshotStore store(dir, train_config.snapshot_retain);
  auto latest_or = store.LatestPath();
  if (!latest_or.ok()) return Fail("latest", latest_or.status());
  auto mapped_or = OpenRecommenderFromSnapshot(latest_or.value(), context,
                                               factory_config);
  if (!mapped_or.ok()) return Fail("open", mapped_or.status());
  std::shared_ptr<Recommender> mapped = std::move(mapped_or).value();

  trained->OnEvalBegin();
  mapped->OnEvalBegin();
  int64_t compared = 0;
  std::vector<int64_t> items(static_cast<size_t>(dataset.num_items));
  for (size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int64_t>(i);
  std::vector<float> want(items.size()), got(items.size());
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    trained->ScoreBlock(user, items, want);
    mapped->ScoreBlock(user, items, got);
    for (size_t r = 0; r < items.size(); ++r) {
      if (want[r] != got[r]) {
        std::fprintf(stderr,
                     "FAIL score mismatch user %lld item %lld: in-RAM %.9g "
                     "vs mapped %.9g\n",
                     static_cast<long long>(user),
                     static_cast<long long>(items[r]), want[r], got[r]);
        return 1;
      }
      ++compared;
    }
  }
  std::printf("zero-copy scores bitwise identical (%lld pairs)\n",
              static_cast<long long>(compared));

  // Retrieval chain: the exact index over the mapped model's exported
  // embeddings must reproduce full-catalog Top-N bitwise through the
  // two-stage path (BPR-MF is kExactScores).
  Recommender& served = *mapped;
  auto exact_or = IndexBuilder().Build(served);
  if (!exact_or.ok()) return Fail("index build", exact_or.status());
  for (int64_t user : {int64_t{0}, int64_t{17}}) {
    const auto want =
        TopNRecommendations(served.BlockScorer(), train_graph, user, 10);
    const auto got =
        TwoStageTopN(served, *exact_or.value(), train_graph, user, 10,
                     dataset.num_items);
    if (want.size() != got.size()) {
      std::fprintf(stderr, "FAIL two-stage top-n size mismatch\n");
      return 1;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (want[i].item != got[i].item || want[i].score != got[i].score) {
        std::fprintf(stderr,
                     "FAIL two-stage diverged from full ranking at rank %zu "
                     "(user %lld)\n",
                     i, static_cast<long long>(user));
        return 1;
      }
    }
  }
  std::printf("two-stage exact retrieval identical to full-catalog top-10\n");

  // Index-from-snapshot determinism: IVF built from the live model and
  // from the mmap'd snapshot must be bit-identical structures.
  IndexBuildConfig ivf_config;
  ivf_config.kind = IndexKind::kIvf;
  const IndexBuilder ivf_builder(ivf_config);
  auto live_or = ivf_builder.Build(served);
  if (!live_or.ok()) return Fail("live ivf build", live_or.status());
  auto snap_or = ivf_builder.BuildFromSnapshot(latest_or.value(), context,
                                               factory_config);
  if (!snap_or.ok()) return Fail("snapshot ivf build", snap_or.status());
  const auto* live_ivf = dynamic_cast<const IvfIndex*>(live_or.value().get());
  const auto* snap_ivf = dynamic_cast<const IvfIndex*>(snap_or.value().get());
  if (live_ivf == nullptr || snap_ivf == nullptr ||
      live_ivf->nlist() != snap_ivf->nlist() ||
      !std::equal(live_ivf->centroids().begin(), live_ivf->centroids().end(),
                  snap_ivf->centroids().begin()) ||
      !std::equal(live_ivf->list_offsets().begin(),
                  live_ivf->list_offsets().end(),
                  snap_ivf->list_offsets().begin()) ||
      !std::equal(live_ivf->list_items().begin(),
                  live_ivf->list_items().end(),
                  snap_ivf->list_items().begin())) {
    std::fprintf(stderr, "FAIL live and snapshot IVF builds differ\n");
    return 1;
  }
  std::printf("live and snapshot ivf builds are bit-identical\n");

  // Raw-table export (the --export-index path): an exact index over the
  // mapped pages serves the same candidates as the model-built one.
  auto raw_snapshot_or = Snapshot::Open(latest_or.value());
  if (!raw_snapshot_or.ok()) return Fail("reopen", raw_snapshot_or.status());
  auto raw_emb_or = ExportFromBprSnapshot(raw_snapshot_or.value());
  if (!raw_emb_or.ok()) return Fail("raw export", raw_emb_or.status());
  auto raw_or =
      IndexBuilder().BuildFromEmbeddings(std::move(raw_emb_or).value());
  if (!raw_or.ok()) return Fail("raw index build", raw_or.status());
  std::vector<float> query(static_cast<size_t>(raw_or.value()->dim()));
  served.WriteRetrievalQuery(3, query);
  std::vector<Recommendation> from_model, from_raw;
  exact_or.value()->Search(query, 20, &from_model);
  raw_or.value()->Search(query, 20, &from_raw);
  if (from_model.size() != from_raw.size()) {
    std::fprintf(stderr, "FAIL raw-table index size mismatch\n");
    return 1;
  }
  for (size_t i = 0; i < from_model.size(); ++i) {
    if (from_model[i].item != from_raw[i].item ||
        from_model[i].score != from_raw[i].score) {
      std::fprintf(stderr, "FAIL raw-table index diverged at rank %zu\n", i);
      return 1;
    }
  }
  std::printf("raw-table snapshot export matches the model-built index\n");
  std::printf("PASS\n");
  return 0;
}

}  // namespace
}  // namespace scenerec

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: snapshot_inspect [--stats] <path.srsnap>\n"
                 "       snapshot_inspect --export-index[=exact|ivf] "
                 "<path.srsnap>\n"
                 "       snapshot_inspect --selftest [dir]\n");
    return 2;
  }
  if (args[0] == "--selftest") {
    return scenerec::SelfTest(args.size() > 1 ? args[1] : "");
  }
  bool stats = false;
  bool export_index = false;
  std::string kind = "ivf";
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--stats") {
      stats = true;
    } else if (arg == "--export-index") {
      export_index = true;
    } else if (arg.rfind("--export-index=", 0) == 0) {
      export_index = true;
      kind = arg.substr(std::string("--export-index=").size());
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "error: no snapshot path given\n");
    return 2;
  }
  if (export_index) return scenerec::ExportIndex(path, kind);
  return scenerec::Inspect(path, stats);
}
