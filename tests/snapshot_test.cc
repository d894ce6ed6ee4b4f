// End-to-end tests of the persistent parameter store (nn/snapshot.h,
// models/factory.h OpenRecommenderFromSnapshot): round-trip bitwise score
// identity for every factory model, crash-safety and corruption rejection,
// SnapshotStore versioning/retention, and mapping lifetime across model
// retirement. The drain tests run under ASan via tools/check.sh; the hot
// swap of a snapshot-bound model under live traffic is in serve_test.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/snapshot.h"
#include "tensor/tensor.h"

namespace scenerec {
namespace {

std::string TempDir() {
  char tmpl[] = "/tmp/scenerec_snap_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl), nullptr);
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "snapshot-test";
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
    dir_ = TempDir();
  }

  void TearDown() override { RemoveTree(dir_); }

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
  std::string dir_;
};

// The tentpole contract: a model opened zero-copy from a snapshot scores
// bitwise identically to the in-RAM model the snapshot was written from —
// per-pair and block path — for EVERY factory model.
TEST_F(SnapshotTest, OpenedModelScoresBitwiseIdenticalForAllModels) {
  for (const std::string& name : Table2ModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> writer = Make(name);
    ASSERT_NE(writer, nullptr);
    const std::string path = dir_ + "/" + name + ".srsnap";
    ASSERT_TRUE(WriteSnapshot(*writer, name, /*version=*/1, path).ok());

    auto opened = OpenRecommenderFromSnapshot(path, Context(), FactoryConfig());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Recommender> mapped = std::move(opened).value();
    EXPECT_EQ(mapped->name(), name);

    writer->OnEvalBegin();
    mapped->OnEvalBegin();
    const std::vector<int64_t> items = AllItems();
    std::vector<float> want(items.size()), got(items.size());
    for (int64_t user : {int64_t{0}, int64_t{13}, int64_t{29}}) {
      writer->ScoreBlock(user, items, want);
      mapped->ScoreBlock(user, items, got);
      for (size_t r = 0; r < items.size(); ++r) {
        // EXPECT_EQ, not NEAR: zero-copy serving must not change numerics.
        ASSERT_EQ(got[r], want[r]) << "user " << user << " item " << items[r];
        ASSERT_EQ(mapped->Score(user, items[r]), want[r]);
      }
    }
  }
}

// Zero-copy means zero-copy: every parameter of an opened model views the
// mapping (borrowed) at a kSnapshotAlignment-aligned address, and no
// parameter accepts gradients.
TEST_F(SnapshotTest, OpenedModelParametersAreBorrowedAndAligned) {
  std::unique_ptr<Recommender> writer = Make("BPR-MF");
  const std::string path = dir_ + "/a.srsnap";
  ASSERT_TRUE(WriteSnapshot(*writer, "BPR-MF", 1, path).ok());
  auto opened = OpenRecommenderFromSnapshot(path, Context(), FactoryConfig());
  ASSERT_TRUE(opened.ok());
  const std::vector<Tensor> params = opened.value()->Parameters();
  ASSERT_FALSE(params.empty());
  for (const Tensor& p : params) {
    EXPECT_TRUE(p.borrowed());
    EXPECT_FALSE(p.requires_grad());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p.value().data()) %
                  static_cast<uintptr_t>(kSnapshotAlignment),
              0u);
  }
}

TEST_F(SnapshotTest, ManifestRecordsTagVersionAndShapes) {
  Rng rng(5);
  Embedding emb(12, 6, rng);
  const std::string path = dir_ + "/emb.srsnap";
  ASSERT_TRUE(WriteSnapshot(emb, "emb", /*version=*/7, path).ok());
  auto snapshot = Snapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value()->tag(), "emb");
  EXPECT_EQ(snapshot.value()->version(), 7u);
  ASSERT_EQ(snapshot.value()->tensors().size(), 1u);
  EXPECT_EQ(snapshot.value()->tensors()[0].shape, Shape({12, 6}));
  EXPECT_EQ(snapshot.value()->tensors()[0].offset % kSnapshotAlignment, 0);
}

// A View pins the mapping: the snapshot handle can be dropped while the
// tensor lives, and reads through the tensor stay valid. Under ASan a
// premature munmap here is a hard error, not a flaky read.
TEST_F(SnapshotTest, ViewPinsMappingAfterSnapshotHandleDropped) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  const std::string path = dir_ + "/pin.srsnap";
  ASSERT_TRUE(WriteSnapshot(emb, "emb", 1, path).ok());
  Tensor view;
  float expected = 0.0f;
  {
    auto snapshot = Snapshot::Open(path);
    ASSERT_TRUE(snapshot.ok());
    view = snapshot.value()->View(0);
    expected = view.value()[0];
  }  // snapshot handle gone; the view's buffer owner keeps the file mapped
  EXPECT_TRUE(view.borrowed());
  EXPECT_EQ(view.value()[0], expected);
  EXPECT_EQ(view.value()[0], emb.table().value()[0]);
}

// Drain-after-swap: destroying an opened model while one of its parameter
// tensors is still held must keep the mapping alive until that last reader
// drops (the serving daemon's retirement contract). ASan gate material.
TEST_F(SnapshotTest, MappingSurvivesModelDestructionUntilLastReaderDrains) {
  std::unique_ptr<Recommender> writer = Make("BPR-MF");
  const std::string path = dir_ + "/drain.srsnap";
  ASSERT_TRUE(WriteSnapshot(*writer, "BPR-MF", 1, path).ok());
  auto opened = OpenRecommenderFromSnapshot(path, Context(), FactoryConfig());
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<Recommender> mapped = std::move(opened).value();
  const Tensor reader = mapped->Parameters()[0];
  const float expected = reader.value()[0];
  mapped.reset();  // the model is gone; `reader` must still be readable
  EXPECT_EQ(reader.value()[0], expected);
}

TEST_F(SnapshotTest, MappedEmbeddingBackendServesLookups) {
  Rng rng(8);
  Embedding trained(14, 4, rng);
  const std::string path = dir_ + "/table.srsnap";
  ASSERT_TRUE(WriteSnapshot(trained, "emb", 1, path).ok());
  auto snapshot = Snapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  Embedding served(
      std::make_shared<MappedParamTable>(snapshot.value()->View(0)));
  EXPECT_FALSE(served.backend()->trainable());
  EXPECT_EQ(served.vocab(), 14);
  EXPECT_EQ(served.dim(), 4);
  for (int64_t id : {int64_t{0}, int64_t{13}}) {
    const Tensor got = served.Lookup(id);
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(got.at(c), trained.table().at(id, c));
    }
  }
}

// -- Corruption and error paths -----------------------------------------

TEST_F(SnapshotTest, BadMagicRejected) {
  const std::string path = dir_ + "/garbage";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a snapshot but long enough to have a header",
             f);
  std::fclose(f);
  auto snapshot = Snapshot::Open(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snapshot.status().message().find("SRSNAP1"), std::string::npos);
}

TEST_F(SnapshotTest, MissingFileRejected) {
  auto snapshot = Snapshot::Open(dir_ + "/no_such_file.srsnap");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, TruncatedHeaderRejected) {
  Rng rng(9);
  Embedding emb(10, 4, rng);
  const std::string path = dir_ + "/trunc_header.srsnap";
  ASSERT_TRUE(WriteSnapshot(emb, "emb", 1, path).ok());
  ASSERT_EQ(::truncate(path.c_str(), 20), 0);  // mid-manifest
  auto snapshot = Snapshot::Open(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find(path), std::string::npos);
}

// A file cut inside a data page must be rejected AT OPEN with an error
// naming the tensor and path — never discovered later as a SIGBUS while
// scoring against the mapping.
TEST_F(SnapshotTest, TruncatedDataPageRejectedNamingTensorAndPath) {
  Rng rng(10);
  Embedding emb(100, 16, rng);
  const std::string path = dir_ + "/trunc_data.srsnap";
  ASSERT_TRUE(WriteSnapshot(emb, "emb", 1, path).ok());
  int64_t end = 0;
  {
    auto intact = Snapshot::Open(path);
    ASSERT_TRUE(intact.ok());
    end = intact.value()->tensors()[0].offset +
          intact.value()->tensors()[0].num_floats * 4;
  }  // unmap before truncating
  ASSERT_EQ(::truncate(path.c_str(), end / 2), 0);
  auto snapshot = Snapshot::Open(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kIOError);
  EXPECT_NE(snapshot.status().message().find("tensor 0"), std::string::npos);
  EXPECT_NE(snapshot.status().message().find(path), std::string::npos);
}

TEST_F(SnapshotTest, BindRejectsShapeMismatchNamingTensorAndPath) {
  Rng rng(11);
  Embedding small(10, 4, rng);
  Embedding big(10, 8, rng);
  const std::string path = dir_ + "/shape.srsnap";
  ASSERT_TRUE(WriteSnapshot(small, "emb", 1, path).ok());
  auto snapshot = Snapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  Status s = BindSnapshot(big, snapshot.value());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("tensor 0"), std::string::npos);
  EXPECT_NE(s.message().find(path), std::string::npos);
  // All-or-nothing: the model must not be left half-bound.
  EXPECT_FALSE(big.table().borrowed());

  // A snapshot with a different parameter count (one embedding table vs a
  // layer's weight and bias) is refused before any tensor is compared.
  Linear layer(4, 10, Activation::kNone, rng);
  s = BindSnapshot(layer, snapshot.value());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find(path), std::string::npos);
  EXPECT_FALSE(layer.weight().borrowed());
  EXPECT_FALSE(layer.bias().borrowed());
}

TEST_F(SnapshotTest, OpenFromSnapshotRejectsUnknownTag) {
  Rng rng(12);
  Embedding emb(10, 4, rng);
  const std::string path = dir_ + "/unknown.srsnap";
  ASSERT_TRUE(WriteSnapshot(emb, "NotAModel", 1, path).ok());
  auto opened = OpenRecommenderFromSnapshot(path, Context(), FactoryConfig());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

// Atomicity: a failed write must leave no file under the final name (and a
// successful write replaces the old version in one rename).
TEST_F(SnapshotTest, FailedWriteNeverObservableUnderFinalName) {
  Rng rng(13);
  Embedding emb(10, 4, rng);
  const std::string path = dir_ + "/no_dir/deep/x.srsnap";
  EXPECT_FALSE(WriteSnapshot(emb, "emb", 1, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

// -- SnapshotStore ------------------------------------------------------

TEST_F(SnapshotTest, StoreWritesMonotonicVersionsAndPrunes) {
  Rng rng(14);
  Embedding emb(10, 4, rng);
  SnapshotStore store(dir_ + "/store", /*retain=*/2);
  for (uint64_t want = 1; want <= 4; ++want) {
    auto version = store.Write(emb, "emb");
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(version.value(), want);
  }
  // Only the newest two survive, and Latest points at the newest.
  EXPECT_FALSE(std::filesystem::exists(store.PathFor(1)));
  EXPECT_FALSE(std::filesystem::exists(store.PathFor(2)));
  EXPECT_TRUE(std::filesystem::exists(store.PathFor(3)));
  EXPECT_TRUE(std::filesystem::exists(store.PathFor(4)));
  auto latest = store.LatestPath();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), store.PathFor(4));
}

// A prune that cannot delete an old snapshot must not fail the write; it
// bumps snapshot/prune_failures and leaves the obstruction in place. The
// obstruction here is a non-empty directory wearing a snapshot filename,
// which std::filesystem::remove refuses to delete.
TEST_F(SnapshotTest, StorePruneFailureCountsAndKeepsWriting) {
  Rng rng(16);
  Embedding emb(10, 4, rng);
  SnapshotStore store(dir_ + "/prunefail", /*retain=*/1);
  auto v1 = store.Write(emb, "emb");
  ASSERT_TRUE(v1.ok());
  const std::string victim = store.PathFor(v1.value());
  telemetry::Telemetry::SetEnabled(true);
  std::error_code ec;
  std::filesystem::remove(victim, ec);
  ASSERT_FALSE(ec);
  ASSERT_TRUE(std::filesystem::create_directory(victim, ec));
  { std::ofstream blocker(victim + "/blocker"); blocker << "x"; }

  const uint64_t before =
      telemetry::Telemetry::Snapshot().CounterValue("snapshot/prune_failures");
  auto v2 = store.Write(emb, "emb");
  ASSERT_TRUE(v2.ok());  // the new snapshot still lands
  EXPECT_TRUE(std::filesystem::exists(store.PathFor(v2.value())));
  EXPECT_TRUE(std::filesystem::exists(victim));  // obstruction survives
  const uint64_t after =
      telemetry::Telemetry::Snapshot().CounterValue("snapshot/prune_failures");
  EXPECT_EQ(after, before + 1);

  // Clearing the obstruction lets the next write prune it normally.
  std::filesystem::remove_all(victim, ec);
  auto v3 = store.Write(emb, "emb");
  ASSERT_TRUE(v3.ok());
  EXPECT_FALSE(std::filesystem::exists(store.PathFor(v2.value())));
  EXPECT_EQ(
      telemetry::Telemetry::Snapshot().CounterValue("snapshot/prune_failures"),
      after);
  telemetry::Telemetry::SetEnabled(false);
}

// Version ids survive process restarts: a new store over the same directory
// continues after the highest existing version, even when older versions
// were pruned.
TEST_F(SnapshotTest, StoreResumesVersioningAcrossInstances) {
  Rng rng(15);
  Embedding emb(10, 4, rng);
  {
    SnapshotStore store(dir_ + "/resume", /*retain=*/1);
    ASSERT_TRUE(store.Write(emb, "emb").ok());
    ASSERT_TRUE(store.Write(emb, "emb").ok());
  }
  SnapshotStore fresh(dir_ + "/resume", /*retain=*/1);
  auto version = fresh.Write(emb, "emb");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 3u);
}

TEST_F(SnapshotTest, EmptyStoreHasNoLatest) {
  SnapshotStore store(dir_ + "/empty");
  auto latest = store.LatestPath();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace scenerec
