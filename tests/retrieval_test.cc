// Tests for the two-stage retrieval subsystem (src/retrieval/,
// docs/retrieval.md): exact-backend bitwise parity with
// TopNRecommendations, IVF recall@100 against the exact reference for
// every exporting factory model, live-vs-snapshot index build identity,
// degenerate catalogs and non-finite rows, and concurrent queries against
// one shared index (the TSan-critical sweep, via tools/check.sh).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "nn/snapshot.h"
#include "retrieval/exact_index.h"
#include "retrieval/index_builder.h"
#include "retrieval/ivf_index.h"
#include "retrieval/two_stage.h"
#include "tensor/kernels.h"

namespace scenerec {
namespace {

/// Factory models that export retrieval embeddings (docs/retrieval.md).
std::vector<std::string> SupportingModels() {
  return {"BPR-MF",   "NGCF",           "KGAT",          "SceneRec",
          "SceneRec-noitem", "SceneRec-nosce", "SceneRec-noatt"};
}

std::vector<std::string> NonSupportingModels() {
  return {"NCF", "CMN", "PinSAGE"};
}

class RetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A catalog wide enough that recall@100 is a real subset (not the
    // whole catalog) yet small enough to build every factory model.
    SyntheticConfig config;
    config.name = "retrieval-test";
    config.num_users = 60;
    config.num_items = 300;
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

  ModelContext Context() const {
    ModelContext context;
    context.user_item = &train_graph_;
    context.scene = &scene_graph_;
    return context;
  }

  static ModelFactoryConfig FactoryConfig() {
    ModelFactoryConfig config;
    config.embedding_dim = 16;
    config.ncf_dim = 8;
    config.max_neighbors = 8;
    return config;
  }

  std::unique_ptr<Recommender> Make(const std::string& name) {
    auto model = MakeRecommender(name, Context(), FactoryConfig());
    EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    return model.ok() ? std::move(model).value() : nullptr;
  }

  static std::unique_ptr<ItemIndex> BuildIndex(Recommender& model,
                                               IndexKind kind) {
    IndexBuildConfig config;
    config.kind = kind;
    auto index = IndexBuilder(config).Build(model);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return index.ok() ? std::move(index).value() : nullptr;
  }

  std::vector<int64_t> AllUsers() const {
    std::vector<int64_t> users(static_cast<size_t>(dataset_.num_users));
    for (size_t u = 0; u < users.size(); ++u) {
      users[u] = static_cast<int64_t>(u);
    }
    return users;
  }

  Dataset dataset_;
  LeaveOneOutSplit split_;
  UserItemGraph train_graph_;
  SceneGraph scene_graph_;
};

// -- Export support matrix -----------------------------------------------------

TEST_F(RetrievalTest, SupportMatrix) {
  for (const std::string& name : SupportingModels()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    ASSERT_TRUE(model->SupportsRetrievalEmbeddings());
    RetrievalEmbeddings emb = model->ExportItemEmbeddings();
    EXPECT_EQ(emb.num_items, dataset_.num_items);
    EXPECT_EQ(emb.dim, model->RetrievalDim());
    ASSERT_NE(emb.items, nullptr);
  }
  for (const std::string& name : NonSupportingModels()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->SupportsRetrievalEmbeddings());
    auto index = IndexBuilder().Build(*model);
    EXPECT_FALSE(index.ok());
  }
}

// -- Exact backend: bitwise parity with serving --------------------------------

// BPR-MF exports its scoring tables, so the exact backend's candidate
// scores must be bitwise equal to Score(user, item): Gemv row r IS the
// fixed-order kernels::Dot the model itself uses.
TEST_F(RetrievalTest, ExactIndexScoresBitwiseEqualModelScores) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  model->OnEvalBegin();
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
  ASSERT_NE(index, nullptr);
  std::vector<float> query(static_cast<size_t>(index->dim()));
  std::vector<Recommendation> out;
  for (int64_t user : {int64_t{0}, int64_t{31}, int64_t{59}}) {
    model->WriteRetrievalQuery(user, query);
    index->Search(query, 50, &out);
    ASSERT_EQ(out.size(), 50u);
    for (const Recommendation& c : out) {
      // EXPECT_EQ, not NEAR: candidate generation must not change
      // numerics for exact-score models.
      ASSERT_EQ(c.score, model->Score(user, c.item))
          << "user " << user << " item " << c.item;
    }
  }
}

// The acceptance gate: the exact backend driven through TwoStageTopN with a
// full candidate budget returns the identical list (items AND scores) to
// the full-catalog TopNRecommendations path — for EVERY exporting model,
// because the rerank stage rescores with exact ScoreBlock.
TEST_F(RetrievalTest, TwoStageFullBudgetIdenticalToTopNForAllModels) {
  for (const std::string& name : SupportingModels()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
    ASSERT_NE(index, nullptr);
    for (int64_t user : {int64_t{0}, int64_t{17}, int64_t{59}}) {
      const auto want =
          TopNRecommendations(model->BlockScorer(), train_graph_, user, 10);
      const auto got = TwoStageTopN(*model, *index, train_graph_, user, 10,
                                    /*num_candidates=*/dataset_.num_items);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
      }
    }
  }
}

// -- IVF: recall against the exact reference -----------------------------------

// The quality protocol of the PR: for every exporting factory model, IVF
// reaches recall@100 >= 0.95 against the exact backend over all users.
// Everything is seeded, so this is deterministic.
//
// This fixture is the HARD regime for IVF — k is a third of the catalog
// and untrained embeddings have no cluster structure — so the documented
// unstructured-data setting nprobe ~= 0.8 * nlist applies (here 14 of 17;
// docs/retrieval.md). On clustered embeddings a small fixed nprobe
// suffices; bench_retrieval measures that regime at 50k items.
TEST_F(RetrievalTest, IvfRecallAt100AtLeast095ForAllModels) {
  const std::vector<int64_t> users = AllUsers();
  for (const std::string& name : SupportingModels()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    std::unique_ptr<ItemIndex> exact = BuildIndex(*model, IndexKind::kExact);
    IndexBuildConfig config;
    config.kind = IndexKind::kIvf;
    config.nprobe = 14;
    auto ivf = IndexBuilder(config).Build(*model);
    ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
    ASSERT_NE(exact, nullptr);
    const double recall =
        RetrievalRecallAtK(*model, *ivf.value(), *exact, 100, users);
    EXPECT_GE(recall, 0.95) << name << " recall@100 = " << recall;
  }
}

// Probing every list makes IVF exhaustive: recall 1.0 and the same
// candidate lists as the exact backend (scores are the same Dot).
TEST_F(RetrievalTest, IvfWithFullProbeMatchesExact) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  RetrievalEmbeddings emb = model->ExportItemEmbeddings();
  // nprobe is clamped to nlist.
  IvfIndex ivf(std::move(emb), IndexBuildConfig{.nprobe = dataset_.num_items});
  EXPECT_EQ(ivf.nprobe(), ivf.nlist());
  std::unique_ptr<ItemIndex> exact = BuildIndex(*model, IndexKind::kExact);
  std::vector<float> query(static_cast<size_t>(exact->dim()));
  std::vector<Recommendation> want, got;
  SearchStats stats;
  for (int64_t user : {int64_t{5}, int64_t{28}}) {
    model->WriteRetrievalQuery(user, query);
    exact->Search(query, 30, &want);
    ivf.Search(query, 30, &got, &stats);
    EXPECT_EQ(stats.lists_probed, ivf.nlist());
    EXPECT_EQ(stats.items_scanned, dataset_.num_items);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
  }
}

// nprobe is the recall/latency knob: more probes never scan fewer items,
// and the structure CSR is well-formed.
TEST_F(RetrievalTest, IvfStructureAndNprobeKnob) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  IvfIndex ivf(model->ExportItemEmbeddings());
  ASSERT_GT(ivf.nlist(), 1);
  ASSERT_EQ(ivf.list_offsets().size(),
            static_cast<size_t>(ivf.nlist()) + 1);
  EXPECT_EQ(ivf.list_offsets().front(), 0);
  EXPECT_EQ(ivf.list_offsets().back(), dataset_.num_items);
  ASSERT_EQ(ivf.list_items().size(),
            static_cast<size_t>(dataset_.num_items));
  // Each list holds ascending ids; the union is the whole catalog.
  std::vector<bool> seen(static_cast<size_t>(dataset_.num_items), false);
  for (int64_t l = 0; l < ivf.nlist(); ++l) {
    for (int64_t i = ivf.list_offsets()[l]; i < ivf.list_offsets()[l + 1];
         ++i) {
      const int64_t item = ivf.list_items()[i];
      ASSERT_FALSE(seen[static_cast<size_t>(item)]);
      seen[static_cast<size_t>(item)] = true;
      if (i > ivf.list_offsets()[l]) {
        ASSERT_LT(ivf.list_items()[i - 1], item);
      }
    }
  }

  std::vector<float> query(static_cast<size_t>(ivf.dim()));
  model->WriteRetrievalQuery(7, query);
  std::vector<Recommendation> out;
  SearchStats narrow, wide;
  const IvfIndex one_probe(model->ExportItemEmbeddings(),
                           IndexBuildConfig{.nprobe = 1});
  one_probe.Search(query, 10, &out, &narrow);
  EXPECT_EQ(narrow.lists_probed, 1);
  const IvfIndex all_probes(model->ExportItemEmbeddings(),
                            IndexBuildConfig{.nprobe = ivf.nlist()});
  all_probes.Search(query, 10, &out, &wide);
  EXPECT_EQ(wide.lists_probed, ivf.nlist());
  EXPECT_GE(wide.items_scanned, narrow.items_scanned);
}

// -- Build determinism: live model vs mmap'd snapshot --------------------------

TEST_F(RetrievalTest, LiveAndSnapshotBuildsAreBitIdentical) {
  char tmpl[] = "/tmp/scenerec_retr_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/m.srsnap";

  std::unique_ptr<Recommender> live = Make("BPR-MF");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(WriteSnapshot(*live, "BPR-MF", /*version=*/1, path).ok());

  IndexBuildConfig config;
  config.kind = IndexKind::kIvf;
  const IndexBuilder builder(config);
  auto live_or = builder.Build(*live);
  ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
  std::unique_ptr<Recommender> mapped;
  auto snap_or =
      builder.BuildFromSnapshot(path, Context(), FactoryConfig(), &mapped);
  ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
  ASSERT_NE(mapped, nullptr);

  const auto* a = dynamic_cast<const IvfIndex*>(live_or.value().get());
  const auto* b = dynamic_cast<const IvfIndex*>(snap_or.value().get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Same seeded k-means over the same parameters: every structure field is
  // bit-identical.
  ASSERT_EQ(a->nlist(), b->nlist());
  ASSERT_EQ(a->centroids().size(), b->centroids().size());
  for (size_t i = 0; i < a->centroids().size(); ++i) {
    ASSERT_EQ(a->centroids()[i], b->centroids()[i]) << "centroid elt " << i;
  }
  ASSERT_TRUE(std::equal(a->list_offsets().begin(), a->list_offsets().end(),
                         b->list_offsets().begin()));
  ASSERT_TRUE(std::equal(a->list_items().begin(), a->list_items().end(),
                         b->list_items().begin()));

  // And the snapshot-backed index serves the same results.
  std::vector<float> query(static_cast<size_t>(a->dim()));
  live->WriteRetrievalQuery(11, query);
  std::vector<Recommendation> want, got;
  a->Search(query, 25, &want);
  b->Search(query, 25, &got);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].item, got[i].item);
    EXPECT_EQ(want[i].score, got[i].score);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// -- Concurrency: one index, many querying threads -----------------------------

// Search is const and allocation-local; a single index must serve
// concurrent queries with results identical to the serial ones. This is
// the TSan target.
TEST_F(RetrievalTest, ConcurrentSearchesMatchSerialResults) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kIvf);
  ASSERT_NE(index, nullptr);

  const int64_t num_users = dataset_.num_users;
  std::vector<std::vector<float>> queries(static_cast<size_t>(num_users));
  std::vector<std::vector<Recommendation>> serial(
      static_cast<size_t>(num_users));
  for (int64_t u = 0; u < num_users; ++u) {
    queries[u].resize(static_cast<size_t>(index->dim()));
    model->WriteRetrievalQuery(u, queries[u]);
    index->Search(queries[u], 20, &serial[u]);
  }

  const int64_t kRounds = 4;
  std::vector<std::vector<Recommendation>> parallel(
      static_cast<size_t>(num_users * kRounds));
  ThreadPool pool(4);
  pool.ParallelFor(num_users * kRounds, /*grain=*/1,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       const int64_t u = i % num_users;
                       index->Search(queries[u], 20, &parallel[i]);
                     }
                   });
  for (int64_t i = 0; i < num_users * kRounds; ++i) {
    const auto& want = serial[i % num_users];
    const auto& got = parallel[i];
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(got[r].item, want[r].item) << "query " << i << " rank " << r;
      ASSERT_EQ(got[r].score, want[r].score);
    }
  }
}

// -- Degenerate inputs ---------------------------------------------------------

TEST_F(RetrievalTest, CatalogSmallerThanKReturnsWholeCatalog) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kIvf}) {
    SCOPED_TRACE(IndexKindName(kind));
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, kind);
    ASSERT_NE(index, nullptr);
    std::vector<float> query(static_cast<size_t>(index->dim()));
    model->WriteRetrievalQuery(0, query);
    std::vector<Recommendation> out;
    index->Search(query, 100000, &out);
    if (kind == IndexKind::kExact) {
      EXPECT_EQ(out.size(), static_cast<size_t>(dataset_.num_items));
    } else {
      // IVF still only scans the probed lists.
      EXPECT_LE(out.size(), static_cast<size_t>(dataset_.num_items));
      EXPECT_FALSE(out.empty());
    }
    // Strict serving order either way.
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_TRUE(BetterRecommendation(out[i - 1], out[i])) << "rank " << i;
    }
  }
}

TEST(RetrievalEdgeTest, EmptyEmbeddingsYieldEmptyResults) {
  RetrievalEmbeddings empty;
  empty.dim = 4;
  ExactIndex exact(std::move(empty));
  std::vector<float> query(4, 1.0f);
  std::vector<Recommendation> out = {{1, 2.0f}};
  exact.Search(query, 10, &out);
  EXPECT_TRUE(out.empty());

  RetrievalEmbeddings empty2;
  empty2.dim = 4;
  IvfIndex ivf(std::move(empty2));
  out = {{1, 2.0f}};
  ivf.Search(query, 10, &out);
  EXPECT_TRUE(out.empty());
}

// The int8 backends are gone: their names are refused like any unknown
// backend, with a message naming the two that exist.
TEST(RetrievalEdgeTest, ParseIndexKindAcceptsOnlyExactAndIvf) {
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kIvf}) {
    auto parsed = ParseIndexKind(IndexKindName(kind));
    ASSERT_TRUE(parsed.ok()) << IndexKindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  for (const char* name : {"exact_sq8", "ivf_sq8", "hnsw"}) {
    auto parsed = ParseIndexKind(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(parsed.status().message().find("(expected exact or ivf)"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST_F(RetrievalTest, TwoStageWithFullyInteractedUser) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
  ASSERT_NE(index, nullptr);

  // User 0 interacted with everything except item 3: the filter leaves
  // exactly one candidate.
  std::vector<Interaction> interactions;
  for (int64_t item = 0; item < dataset_.num_items; ++item) {
    if (item != 3) interactions.push_back({0, item});
  }
  UserItemGraph all_but_one =
      UserItemGraph::Build(dataset_.num_users, dataset_.num_items,
                           interactions);
  auto recs = TwoStageTopN(*model, *index, all_but_one, 0, 10, 50);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 3);
  EXPECT_EQ(recs[0].score, model->Score(0, 3));
  // n = 0 is an empty list, as for TopNRecommendations.
  EXPECT_TRUE(TwoStageTopN(*model, *index, all_but_one, 0, 0, 50).empty());

  // ... and with every item interacted, the result is empty.
  interactions.push_back({0, 3});
  UserItemGraph all = UserItemGraph::Build(
      dataset_.num_users, dataset_.num_items, interactions);
  EXPECT_TRUE(TwoStageTopN(*model, *index, all, 0, 10, 50).empty());
}

TEST_F(RetrievalTest, TwoStageStatsAccounting) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kIvf);
  ASSERT_NE(index, nullptr);
  SearchStats stats;
  const auto recs =
      TwoStageTopN(*model, *index, train_graph_, 2, 10, 64, &stats);
  EXPECT_FALSE(recs.empty());
  EXPECT_GT(stats.lists_probed, 0);
  EXPECT_GT(stats.items_scanned, 0);
  EXPECT_GT(stats.rescored, 0);
  EXPECT_LE(stats.rescored, 64);
}

// -- MultiSearch: the batched sweep must be invisible in results ---------------

void ExpectSameCandidates(const std::vector<Recommendation>& got,
                          const std::vector<Recommendation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].item, want[i].item) << "rank " << i;
    // Equal, not NEAR: batching queries must not change a bit. Two NaN
    // scores count as equal.
    ASSERT_TRUE(got[i].score == want[i].score ||
                (std::isnan(got[i].score) && std::isnan(want[i].score)))
        << "rank " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

/// The fully materialized score list of `emb` for `query`, fully sorted
/// under BetterRecommendation and cut to its first k entries: the
/// definition of the list every backend's selection must reproduce
/// (kernels::Dot per row is bitwise the index scans' Gemv/GemvMulti row).
std::vector<Recommendation> MaterializedTopK(
    const RetrievalEmbeddings& emb, std::span<const float> query, int64_t k) {
  std::vector<Recommendation> all;
  all.reserve(static_cast<size_t>(emb.num_items));
  for (int64_t i = 0; i < emb.num_items; ++i) {
    float s = kernels::Dot(query.data(), emb.items + i * emb.dim, emb.dim);
    if (emb.bias != nullptr) s += emb.bias[i];
    all.push_back({i, s});
  }
  std::sort(all.begin(), all.end(), BetterRecommendation);
  all.resize(std::min(all.size(), static_cast<size_t>(k)));
  return all;
}

/// Builds each backend over `emb` (exact, and IVF probing every list) and
/// checks that Search and MultiSearch both return MaterializedTopK for every
/// query of the batch `queries` with its k.
void ExpectBackendsMatchMaterialized(const RetrievalEmbeddings& emb,
                                     std::span<const float> queries,
                                     std::span<const int64_t> ks) {
  IndexBuildConfig ivf_config;
  ivf_config.kind = IndexKind::kIvf;
  ivf_config.nlist = 16;
  ivf_config.nprobe = 16;
  for (const IndexBuildConfig& config : {IndexBuildConfig{}, ivf_config}) {
    SCOPED_TRACE(IndexKindName(config.kind));
    auto built = IndexBuilder(config).BuildFromEmbeddings(emb);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::unique_ptr<ItemIndex> index = std::move(built).value();
    std::vector<std::vector<Recommendation>> outs;
    index->MultiSearch(queries, ks, &outs);
    ASSERT_EQ(outs.size(), ks.size());
    std::vector<Recommendation> got;
    for (size_t q = 0; q < ks.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      const std::span<const float> query = queries.subspan(
          q * static_cast<size_t>(emb.dim), static_cast<size_t>(emb.dim));
      const std::vector<Recommendation> want =
          MaterializedTopK(emb, query, ks[q]);
      index->Search(query, ks[q], &got);
      ExpectSameCandidates(got, want);
      ExpectSameCandidates(outs[q], want);
    }
  }
}

// Every backend: (*outs)[q] must be bitwise Search(queries[q], ks[q]) —
// the exact backends through their shared-sweep override (GemvMulti tiles
// plus bounded selection), IVF through the base-class per-query loop.
// BPR-MF exports an item bias, so the biased offer path is covered too;
// mixed ks cover the bounded top-k at k=1, mid-size and k > catalog.
//
// A second, generated catalog is large enough for the exact sweep to split
// its tiles across the sweep pool's lanes. Its best rows are copies placed
// on both sides of every 1,024-row tile boundary (and so of every chunk
// boundary), so equal scores meet across chunks; the ks cut through both
// tie groups, and every batch of one to five queries must still pick the
// tied copies lowest id first. It also holds NaN and ±inf rows at the
// lowest ids and beside the tile boundaries, which rank after every finite
// row (BetterRecommendation). Over it, and over a catalog whose first 8
// rows are NaN, every backend's Search and MultiSearch must return the
// fully sorted, materialized score list cut to k. An IVF index built over
// the NaN catalog at default options must still spread the finite rows
// over its lists: NaN rows neither seed nor move a centroid.
TEST_F(RetrievalTest, MultiSearchBitwiseEqualsSearchForAllBackends) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  model->OnEvalBegin();
  const std::vector<int64_t> users = {0, 7, 13, 21, 34, 42, 55, 58, 59};
  const std::vector<int64_t> ks = {1, 5, 50, 299, 300, 100000, 17, 2, 64};
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kIvf}) {
    SCOPED_TRACE(IndexKindName(kind));
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, kind);
    ASSERT_NE(index, nullptr);
    const int64_t dim = index->dim();
    std::vector<float> queries(users.size() * static_cast<size_t>(dim));
    for (size_t q = 0; q < users.size(); ++q) {
      model->WriteRetrievalQuery(
          users[q], std::span<float>(queries.data() + q * dim,
                                     static_cast<size_t>(dim)));
    }
    std::vector<std::vector<Recommendation>> outs;
    std::vector<SearchStats> stats;
    index->MultiSearch(queries, ks, &outs, &stats);
    ASSERT_EQ(outs.size(), users.size());
    ASSERT_EQ(stats.size(), users.size());
    std::vector<Recommendation> want;
    SearchStats want_stats;
    for (size_t q = 0; q < users.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      index->Search(std::span<const float>(queries.data() + q * dim,
                                           static_cast<size_t>(dim)),
                    ks[q], &want, &want_stats);
      ExpectSameCandidates(outs[q], want);
      EXPECT_EQ(stats[q].lists_probed, want_stats.lists_probed);
      EXPECT_EQ(stats[q].items_scanned, want_stats.items_scanned);
    }
  }

  constexpr int64_t kTile = 1024;
  constexpr int64_t kTiles = 20;
  constexpr int64_t kDim = 8;
  const int64_t num_items = kTiles * kTile + 300;
  Rng rng(7);
  std::vector<float> items(static_cast<size_t>(num_items * kDim));
  for (float& v : items) v = rng.NextFloat(-1.0f, 1.0f);
  // Queries are positive, so an all-4 row outscores every random row and
  // an all-3 row every row but those; each tie group has 2 * (kTiles - 1)
  // copies, one on each side of a tile boundary.
  std::vector<int64_t> best_copies;
  const auto place = [&](int64_t item, float value) {
    std::fill_n(items.begin() + item * kDim, kDim, value);
  };
  // Non-finite rows: one element of a row set to NaN or ±inf makes its
  // score NaN or ±inf under the positive queries.
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float poison[] = {kNaN, kInf, -kInf};
  for (int64_t i = 0; i < 6; ++i) {
    items[static_cast<size_t>(i * kDim)] = poison[i % 3];
  }
  for (int64_t t = 1; t < kTiles; ++t) {
    items[static_cast<size_t>((t * kTile - 3) * kDim)] = poison[t % 3];
    items[static_cast<size_t>((t * kTile + 2) * kDim)] = poison[(t + 1) % 3];
  }
  items[static_cast<size_t>((num_items - 1) * kDim)] = kInf;
  for (int64_t t = 1; t < kTiles; ++t) {
    best_copies.push_back(t * kTile - 1);
    best_copies.push_back(t * kTile);
    place(t * kTile - 1, 4.0f);
    place(t * kTile, 4.0f);
    place(t * kTile - 2, 3.0f);
    place(t * kTile + 1, 3.0f);
  }
  RetrievalEmbeddings emb;
  emb.num_items = num_items;
  emb.dim = kDim;
  emb.items = items.data();
  const int64_t group = static_cast<int64_t>(best_copies.size());
  const std::vector<int64_t> big_ks = {
      1, 3, group - 1, group, group + 5, 2 * group + 1, 700, num_items};
  for (int64_t nq = 1; nq <= 5; ++nq) {
    SCOPED_TRACE("generated catalog, nq=" + std::to_string(nq));
    std::vector<float> queries(static_cast<size_t>(nq * kDim));
    for (float& v : queries) v = rng.NextFloat(0.1f, 1.0f);
    std::vector<int64_t> ks(static_cast<size_t>(nq));
    for (int64_t q = 0; q < nq; ++q) {
      ks[static_cast<size_t>(q)] =
          big_ks[static_cast<size_t>((q + nq) % big_ks.size())];
    }
    ExpectBackendsMatchMaterialized(emb, queries, ks);
    for (int64_t q = 0; q < nq; ++q) {
      const std::vector<Recommendation> want = MaterializedTopK(
          emb, std::span<const float>(queries.data() + q * kDim,
                                      static_cast<size_t>(kDim)),
          ks[static_cast<size_t>(q)]);
      const size_t tied = std::min(want.size(), best_copies.size());
      for (size_t r = 0; r < tied; ++r) {
        ASSERT_EQ(want[r].item, best_copies[r]) << "rank " << r;
      }
    }
  }

  // With k = 4 the bounded top-k's first full buffer holds only the 8 NaN
  // rows; the finite winners further down must still be found.
  std::vector<float> nan_items(static_cast<size_t>(5000 * kDim));
  for (float& v : nan_items) v = rng.NextFloat(-1.0f, 1.0f);
  for (int64_t i = 0; i < 8; ++i) {
    nan_items[static_cast<size_t>(i * kDim + i)] = kNaN;
  }
  RetrievalEmbeddings nan_emb;
  nan_emb.num_items = 5000;
  nan_emb.dim = kDim;
  nan_emb.items = nan_items.data();
  const std::vector<float> ones(static_cast<size_t>(kDim), 1.0f);
  const std::vector<int64_t> four = {4};
  const std::vector<Recommendation> winners =
      MaterializedTopK(nan_emb, ones, 4);
  ASSERT_EQ(winners.size(), 4u);
  for (const Recommendation& c : winners) {
    EXPECT_GE(c.item, 8);
    EXPECT_TRUE(std::isfinite(c.score));
  }
  SCOPED_TRACE("8 NaN rows first");
  ExpectBackendsMatchMaterialized(nan_emb, ones, four);

  const IvfIndex ivf(nan_emb);
  ASSERT_EQ(ivf.nlist(), 71);
  ASSERT_EQ(ivf.nprobe(), 8);
  for (const float c : ivf.centroids()) ASSERT_TRUE(std::isfinite(c));
  ASSERT_EQ(ivf.list_offsets().back(), nan_emb.num_items);
  ASSERT_EQ(ivf.list_items().size(), static_cast<size_t>(nan_emb.num_items));
  int64_t non_empty = 0;
  for (int64_t l = 0; l < ivf.nlist(); ++l) {
    non_empty += ivf.list_offsets()[l + 1] > ivf.list_offsets()[l] ? 1 : 0;
  }
  EXPECT_GT(non_empty, 1);
  std::vector<Recommendation> found;
  ivf.Search(ones, 4, &found);
  ASSERT_EQ(found.size(), 4u);
  for (const Recommendation& c : found) EXPECT_TRUE(std::isfinite(c.score));
}

TEST_F(RetrievalTest, MultiSearchEmptyBatchAndReusedOutputs) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
  ASSERT_NE(index, nullptr);
  // Stale outputs must be cleared/resized, not appended to.
  std::vector<std::vector<Recommendation>> outs(3);
  outs[0] = {{1, 2.0f}};
  index->MultiSearch({}, {}, &outs);
  EXPECT_TRUE(outs.empty());
  std::vector<float> query(static_cast<size_t>(index->dim()));
  model->WriteRetrievalQuery(0, query);
  outs.assign(2, {{9, 9.0f}});
  const int64_t ks[] = {4};
  index->MultiSearch(query, ks, &outs);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].size(), 4u);
}

// Stage 1 of the serving daemon's coalesced batches: each user's candidate
// list from the one-sweep batch must be exactly the list of a batch of one
// (what TwoStageTopN retrieves) — including duplicate users within one
// batch.
TEST_F(RetrievalTest, RetrieveCandidatesBatchMatchesPerUser) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  model->OnEvalBegin();
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kIvf}) {
    SCOPED_TRACE(IndexKindName(kind));
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, kind);
    ASSERT_NE(index, nullptr);
    std::vector<int64_t> users = AllUsers();
    users.push_back(0);   // duplicates are scored independently
    users.push_back(42);
    const auto batch = RetrieveCandidatesBatch(*model, *index, train_graph_,
                                               users, /*num_candidates=*/32);
    ASSERT_EQ(batch.size(), users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      const auto want = RetrieveCandidatesBatch(
          *model, *index, train_graph_, std::span(&users[i], 1), 32);
      EXPECT_EQ(batch[i], want[0]) << "user " << users[i];
    }
  }
}

}  // namespace
}  // namespace scenerec
