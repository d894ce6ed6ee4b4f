// Tests for the two-stage retrieval subsystem (src/retrieval/,
// docs/retrieval.md): exact-backend bitwise parity with
// TopNRecommendations, IVF recall@100 against the exact reference for
// every exporting factory model, live-vs-snapshot index build identity,
// int8 quantization error bounds, degenerate catalogs, and concurrent
// queries against one shared index (the TSan-critical sweep, via
// tools/check.sh).

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
#include "retrieval/quantize.h"
#include "retrieval/two_stage.h"

namespace scenerec {
namespace {

/// Factory models that export retrieval embeddings, with the fidelity each
/// declares (docs/retrieval.md).
struct SupportedModel {
  const char* name;
  RetrievalFidelity fidelity;
};

std::vector<SupportedModel> SupportingModels() {
  return {{"BPR-MF", RetrievalFidelity::kExactScores},
          {"GCMC", RetrievalFidelity::kExactScores},
          {"ItemPop", RetrievalFidelity::kExactScores},
          {"NGCF", RetrievalFidelity::kFaithfulRanking},
          {"KGAT", RetrievalFidelity::kFaithfulRanking},
          {"SceneRec", RetrievalFidelity::kProxy},
          {"SceneRec-noitem", RetrievalFidelity::kProxy},
          {"SceneRec-nosce", RetrievalFidelity::kProxy},
          {"SceneRec-noatt", RetrievalFidelity::kProxy}};
}

std::vector<std::string> NonSupportingModels() {
  return {"NCF", "CMN", "PinSAGE", "KGCN", "ItemRank"};
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

TEST_F(RetrievalTest, SupportMatrixAndDeclaredFidelity) {
  for (const SupportedModel& entry : SupportingModels()) {
    SCOPED_TRACE(entry.name);
    std::unique_ptr<Recommender> model = Make(entry.name);
    ASSERT_NE(model, nullptr);
    ASSERT_TRUE(model->SupportsRetrievalEmbeddings());
    RetrievalEmbeddings emb = model->ExportItemEmbeddings();
    EXPECT_EQ(emb.num_items, dataset_.num_items);
    EXPECT_EQ(emb.dim, model->RetrievalDim());
    EXPECT_EQ(static_cast<int>(emb.fidelity),
              static_cast<int>(entry.fidelity));
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

// Under kExactScores fidelity the exact backend's candidate scores must be
// bitwise equal to Score(user, item): Gemv row r IS the fixed-order
// kernels::Dot the model itself uses.
TEST_F(RetrievalTest, ExactIndexScoresBitwiseEqualModelScores) {
  for (const SupportedModel& entry : SupportingModels()) {
    if (entry.fidelity != RetrievalFidelity::kExactScores) continue;
    SCOPED_TRACE(entry.name);
    std::unique_ptr<Recommender> model = Make(entry.name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
    ASSERT_NE(index, nullptr);
    std::vector<float> query(static_cast<size_t>(index->dim()));
    std::vector<RetrievalCandidate> out;
    for (int64_t user : {int64_t{0}, int64_t{31}, int64_t{59}}) {
      model->WriteRetrievalQuery(user, query);
      index->Search(query, 50, &out);
      ASSERT_EQ(out.size(), 50u);
      for (const RetrievalCandidate& c : out) {
        // EXPECT_EQ, not NEAR: candidate generation must not change
        // numerics for exact-score models.
        ASSERT_EQ(c.score, model->Score(user, c.item))
            << "user " << user << " item " << c.item;
      }
    }
  }
}

// The acceptance gate: the exact backend driven through TwoStageTopN with a
// full candidate budget returns the identical list (items AND scores) to
// the full-catalog TopNRecommendations path — for EVERY exporting model,
// because the rerank stage rescores with exact ScoreBlock.
TEST_F(RetrievalTest, TwoStageFullBudgetIdenticalToTopNForAllModels) {
  for (const SupportedModel& entry : SupportingModels()) {
    SCOPED_TRACE(entry.name);
    std::unique_ptr<Recommender> model = Make(entry.name);
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

// Int8 rescoring restores exact index scores: the sq8 exact backend's final
// scores are bitwise equal to the float backend's for the items both
// return.
TEST_F(RetrievalTest, Sq8RescoredScoresAreExact) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> fp32 = BuildIndex(*model, IndexKind::kExact);
  std::unique_ptr<ItemIndex> sq8 = BuildIndex(*model, IndexKind::kExactSq8);
  ASSERT_NE(fp32, nullptr);
  ASSERT_NE(sq8, nullptr);
  std::vector<float> query(static_cast<size_t>(fp32->dim()));
  std::vector<RetrievalCandidate> want, got;
  SearchStats stats;
  for (int64_t user : {int64_t{3}, int64_t{42}}) {
    model->WriteRetrievalQuery(user, query);
    fp32->Search(query, 20, &want);
    sq8->Search(query, 20, &got, &stats);
    EXPECT_GE(stats.rescored, 20);
    std::vector<float> exact_by_item(
        static_cast<size_t>(dataset_.num_items),
        std::numeric_limits<float>::quiet_NaN());
    for (const RetrievalCandidate& c : want) {
      exact_by_item[static_cast<size_t>(c.item)] = c.score;
    }
    for (const RetrievalCandidate& c : got) {
      if (std::isnan(exact_by_item[static_cast<size_t>(c.item)])) continue;
      ASSERT_EQ(c.score, exact_by_item[static_cast<size_t>(c.item)])
          << "item " << c.item;
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
  for (const SupportedModel& entry : SupportingModels()) {
    SCOPED_TRACE(entry.name);
    std::unique_ptr<Recommender> model = Make(entry.name);
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
    EXPECT_GE(recall, 0.95) << entry.name << " recall@100 = " << recall;
  }
}

// Probing every list makes IVF exhaustive: recall 1.0 and the same
// candidate lists as the exact backend (scores are the same Dot).
TEST_F(RetrievalTest, IvfWithFullProbeMatchesExact) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  RetrievalEmbeddings emb = model->ExportItemEmbeddings();
  IvfIndex::Options opt;
  opt.nprobe = dataset_.num_items;  // clamped to nlist
  IvfIndex ivf(std::move(emb), opt);
  EXPECT_EQ(ivf.nprobe(), ivf.nlist());
  std::unique_ptr<ItemIndex> exact = BuildIndex(*model, IndexKind::kExact);
  std::vector<float> query(static_cast<size_t>(exact->dim()));
  std::vector<RetrievalCandidate> want, got;
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

// set_nprobe is the post-build recall/latency knob: more probes never scan
// fewer items, and the structure CSR is well-formed.
TEST_F(RetrievalTest, IvfStructureAndNprobeKnob) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  IvfIndex ivf(model->ExportItemEmbeddings(), IvfIndex::Options{});
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
  std::vector<RetrievalCandidate> out;
  SearchStats narrow, wide;
  ivf.set_nprobe(1);
  ivf.Search(query, 10, &out, &narrow);
  EXPECT_EQ(narrow.lists_probed, 1);
  ivf.set_nprobe(ivf.nlist());
  ivf.Search(query, 10, &out, &wide);
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
  config.kind = IndexKind::kIvfSq8;
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
  // bit-identical, down to the int8 codes.
  ASSERT_EQ(a->nlist(), b->nlist());
  ASSERT_EQ(a->centroids().size(), b->centroids().size());
  for (size_t i = 0; i < a->centroids().size(); ++i) {
    ASSERT_EQ(a->centroids()[i], b->centroids()[i]) << "centroid elt " << i;
  }
  ASSERT_TRUE(std::equal(a->list_offsets().begin(), a->list_offsets().end(),
                         b->list_offsets().begin()));
  ASSERT_TRUE(std::equal(a->list_items().begin(), a->list_items().end(),
                         b->list_items().begin()));
  ASSERT_NE(a->quantizer(), nullptr);
  ASSERT_NE(b->quantizer(), nullptr);
  EXPECT_EQ(a->quantizer()->codes(), b->quantizer()->codes());
  EXPECT_EQ(a->quantizer()->scales(), b->quantizer()->scales());
  EXPECT_EQ(a->quantizer()->zeros(), b->quantizer()->zeros());

  // And the snapshot-backed index serves the same results.
  std::vector<float> query(static_cast<size_t>(a->dim()));
  live->WriteRetrievalQuery(11, query);
  std::vector<RetrievalCandidate> want, got;
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
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kIvfSq8);
  ASSERT_NE(index, nullptr);

  const int64_t num_users = dataset_.num_users;
  std::vector<std::vector<float>> queries(static_cast<size_t>(num_users));
  std::vector<std::vector<RetrievalCandidate>> serial(
      static_cast<size_t>(num_users));
  for (int64_t u = 0; u < num_users; ++u) {
    queries[u].resize(static_cast<size_t>(index->dim()));
    model->WriteRetrievalQuery(u, queries[u]);
    index->Search(queries[u], 20, &serial[u]);
  }

  const int64_t kRounds = 4;
  std::vector<std::vector<RetrievalCandidate>> parallel(
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

// -- Int8 quantization bounds --------------------------------------------------

TEST(Sq8MatrixTest, RoundTripErrorWithinHalfScale) {
  const int64_t rows = 50, dim = 16;
  Rng rng(7);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (float& v : data) {
    v = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
  }
  // A constant column exercises the degenerate-dimension path (scale 1.0).
  for (int64_t r = 0; r < rows; ++r) {
    data[static_cast<size_t>(r * dim + 5)] = 0.25f;
  }
  Sq8Matrix m(data.data(), rows, dim);
  ASSERT_EQ(m.num_rows(), rows);
  ASSERT_EQ(m.dim(), dim);
  EXPECT_EQ(m.scales()[5], 1.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t d = 0; d < dim; ++d) {
      const float v = data[static_cast<size_t>(r * dim + d)];
      const float bound = m.scales()[static_cast<size_t>(d)] * 0.5f + 1e-5f;
      EXPECT_LE(std::abs(m.Dequantized(r, d) - v), bound)
          << "row " << r << " dim " << d;
    }
  }
}

TEST(Sq8MatrixTest, ApproxScoreWithinAnalyticBound) {
  const int64_t rows = 40, dim = 24;
  Rng rng(11);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (float& v : data) {
    v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  }
  Sq8Matrix m(data.data(), rows, dim);
  std::vector<float> query(static_cast<size_t>(dim));
  for (float& v : query) {
    v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  }
  const Sq8Matrix::EncodedQuery eq = m.EncodeQuery(query);

  // Error decomposition (quantize.h): item-code error contributes at most
  // sum_d |q_d| s_d / 2; query-code error at most qscale/2 * sum_d code_d.
  for (int64_t r = 0; r < rows; ++r) {
    double exact = 0.0;
    double bound = 1e-4;
    for (int64_t d = 0; d < dim; ++d) {
      exact += static_cast<double>(query[static_cast<size_t>(d)]) *
               data[static_cast<size_t>(r * dim + d)];
      bound += 0.5 * std::abs(query[static_cast<size_t>(d)]) *
               m.scales()[static_cast<size_t>(d)];
      bound += 0.5 * static_cast<double>(eq.scale) *
               m.codes()[static_cast<size_t>(r * dim + d)];
    }
    EXPECT_NEAR(m.Score(eq, r), exact, bound) << "row " << r;
  }

  // The batched scan is the same arithmetic as the per-row score.
  std::vector<float> batched(static_cast<size_t>(rows));
  m.ScoreRows(eq, 0, rows, batched.data());
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_EQ(batched[static_cast<size_t>(r)], m.Score(eq, r)) << "row " << r;
  }
}

// -- Degenerate inputs ---------------------------------------------------------

TEST_F(RetrievalTest, CatalogSmallerThanKReturnsWholeCatalog) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kExactSq8,
                         IndexKind::kIvf, IndexKind::kIvfSq8}) {
    SCOPED_TRACE(IndexKindName(kind));
    std::unique_ptr<ItemIndex> index = BuildIndex(*model, kind);
    ASSERT_NE(index, nullptr);
    std::vector<float> query(static_cast<size_t>(index->dim()));
    model->WriteRetrievalQuery(0, query);
    std::vector<RetrievalCandidate> out;
    index->Search(query, 100000, &out);
    if (kind == IndexKind::kExact || kind == IndexKind::kExactSq8) {
      EXPECT_EQ(out.size(), static_cast<size_t>(dataset_.num_items));
    } else {
      // IVF still only scans the probed lists.
      EXPECT_LE(out.size(), static_cast<size_t>(dataset_.num_items));
      EXPECT_FALSE(out.empty());
    }
    // Strict serving order either way.
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_TRUE(BetterCandidate(out[i - 1], out[i])) << "rank " << i;
    }
  }
}

TEST(RetrievalEdgeTest, EmptyEmbeddingsYieldEmptyResults) {
  RetrievalEmbeddings empty;
  empty.dim = 4;
  ExactIndex exact(std::move(empty));
  std::vector<float> query(4, 1.0f);
  std::vector<RetrievalCandidate> out = {{1, 2.0f}};
  exact.Search(query, 10, &out);
  EXPECT_TRUE(out.empty());

  RetrievalEmbeddings empty2;
  empty2.dim = 4;
  IvfIndex ivf(std::move(empty2), IvfIndex::Options{});
  out = {{1, 2.0f}};
  ivf.Search(query, 10, &out);
  EXPECT_TRUE(out.empty());
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

void ExpectSameCandidates(const std::vector<RetrievalCandidate>& got,
                          const std::vector<RetrievalCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].item, want[i].item) << "rank " << i;
    // EXPECT_EQ, not NEAR: batching queries must not change a bit.
    ASSERT_EQ(got[i].score, want[i].score) << "rank " << i;
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
// tied copies lowest id first, exactly as the serial Search does.
TEST_F(RetrievalTest, MultiSearchBitwiseEqualsSearchForAllBackends) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  model->OnEvalBegin();
  const std::vector<int64_t> users = {0, 7, 13, 21, 34, 42, 55, 58, 59};
  const std::vector<int64_t> ks = {1, 5, 50, 299, 300, 100000, 17, 2, 64};
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kExactSq8,
                         IndexKind::kIvf, IndexKind::kIvfSq8}) {
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
    std::vector<std::vector<RetrievalCandidate>> outs;
    std::vector<SearchStats> stats;
    index->MultiSearch(queries, ks, &outs, &stats);
    ASSERT_EQ(outs.size(), users.size());
    ASSERT_EQ(stats.size(), users.size());
    std::vector<RetrievalCandidate> want;
    SearchStats want_stats;
    for (size_t q = 0; q < users.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      index->Search(std::span<const float>(queries.data() + q * dim,
                                           static_cast<size_t>(dim)),
                    ks[q], &want, &want_stats);
      ExpectSameCandidates(outs[q], want);
      EXPECT_EQ(stats[q].lists_probed, want_stats.lists_probed);
      EXPECT_EQ(stats[q].items_scanned, want_stats.items_scanned);
      EXPECT_EQ(stats[q].rescored, want_stats.rescored);
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
  emb.fidelity = RetrievalFidelity::kExactScores;
  emb.items = items.data();
  const int64_t group = static_cast<int64_t>(best_copies.size());
  const std::vector<int64_t> big_ks = {
      1, 3, group - 1, group, group + 5, 2 * group + 1, 700};
  for (IndexKind kind : {IndexKind::kExact, IndexKind::kExactSq8}) {
    SCOPED_TRACE(std::string("generated catalog, ") + IndexKindName(kind));
    IndexBuildConfig config;
    config.kind = kind;
    auto built = IndexBuilder(config).BuildFromEmbeddings(emb);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::unique_ptr<ItemIndex> index = std::move(built).value();
    for (int64_t nq = 1; nq <= 5; ++nq) {
      SCOPED_TRACE("nq=" + std::to_string(nq));
      std::vector<float> queries(static_cast<size_t>(nq * kDim));
      for (float& v : queries) v = rng.NextFloat(0.1f, 1.0f);
      std::vector<int64_t> ks(static_cast<size_t>(nq));
      for (int64_t q = 0; q < nq; ++q) {
        ks[static_cast<size_t>(q)] =
            big_ks[static_cast<size_t>((q + nq) % big_ks.size())];
      }
      std::vector<std::vector<RetrievalCandidate>> outs;
      index->MultiSearch(queries, ks, &outs);
      ASSERT_EQ(outs.size(), static_cast<size_t>(nq));
      std::vector<RetrievalCandidate> want;
      for (int64_t q = 0; q < nq; ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        index->Search(std::span<const float>(queries.data() + q * kDim,
                                             static_cast<size_t>(kDim)),
                      ks[static_cast<size_t>(q)], &want);
        ExpectSameCandidates(outs[static_cast<size_t>(q)], want);
        const size_t tied = std::min(want.size(), best_copies.size());
        for (size_t r = 0; r < tied; ++r) {
          ASSERT_EQ(want[r].item, best_copies[r]) << "rank " << r;
        }
      }
    }
  }
}

TEST_F(RetrievalTest, MultiSearchEmptyBatchAndReusedOutputs) {
  std::unique_ptr<Recommender> model = Make("BPR-MF");
  ASSERT_NE(model, nullptr);
  std::unique_ptr<ItemIndex> index = BuildIndex(*model, IndexKind::kExact);
  ASSERT_NE(index, nullptr);
  // Stale outputs must be cleared/resized, not appended to.
  std::vector<std::vector<RetrievalCandidate>> outs(3);
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
// list from the one-sweep batch must be exactly the per-user list —
// including duplicate users within one batch.
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
      const auto want = RetrieveCandidates(*model, *index, train_graph_,
                                           users[i], 32);
      EXPECT_EQ(batch[i], want) << "user " << users[i];
    }
  }
}

}  // namespace
}  // namespace scenerec
