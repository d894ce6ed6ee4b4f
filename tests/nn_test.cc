#include <cmath>

#include <gtest/gtest.h>

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

// -- Linear ---------------------------------------------------------------------

TEST(LinearTest, OutputShapeAndParams) {
  Rng rng(1);
  Linear layer(8, 4, Activation::kNone, rng);
  Tensor x = Tensor::RandomUniform(Shape({8}), -1, 1, rng);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({4}));
  EXPECT_EQ(layer.NumParameters(), 8 * 4 + 4);
}

TEST(LinearTest, IdentityWhenWeightsAreIdentity) {
  Rng rng(2);
  Linear layer(2, 2, Activation::kNone, rng);
  // Overwrite weights with identity and bias with zero.
  auto& w = const_cast<Tensor&>(layer.weight()).mutable_value();
  w = {1, 0, 0, 1};
  Tensor x = Tensor::FromVector(Shape({2}), {3.0f, -4.0f});
  testing::ExpectVectorNear(layer.Forward(x).value(), {3.0f, -4.0f});
}

TEST(LinearTest, ActivationApplied) {
  Rng rng(3);
  Linear layer(2, 2, Activation::kRelu, rng);
  auto& w = const_cast<Tensor&>(layer.weight()).mutable_value();
  w = {1, 0, 0, 1};
  Tensor x = Tensor::FromVector(Shape({2}), {3.0f, -4.0f});
  testing::ExpectVectorNear(layer.Forward(x).value(), {3.0f, 0.0f});
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(4);
  Linear layer(3, 2, Activation::kTanh, rng);
  Tensor x = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  std::vector<Tensor> params = layer.Parameters();
  params.push_back(x);
  testing::ExpectGradientsClose(
      [&] { return Sum(Mul(layer.Forward(x), layer.Forward(x))); }, params);
}

// -- Mlp -----------------------------------------------------------------------

TEST(MlpTest, LayerDimsChain) {
  Rng rng(5);
  Mlp mlp({10, 8, 4, 1}, Activation::kLeakyRelu, Activation::kNone, rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.in_dim(), 10);
  EXPECT_EQ(mlp.out_dim(), 1);
  Tensor x = Tensor::RandomUniform(Shape({10}), -1, 1, rng);
  EXPECT_EQ(mlp.Forward(x).shape(), Shape({1}));
}

TEST(MlpTest, ParameterCount) {
  Rng rng(6);
  Mlp mlp({4, 3, 2}, Activation::kRelu, Activation::kNone, rng);
  EXPECT_EQ(mlp.NumParameters(), (4 * 3 + 3) + (3 * 2 + 2));
}

TEST(MlpTest, GradCheckEndToEnd) {
  Rng rng(7);
  Mlp mlp({3, 4, 1}, Activation::kTanh, Activation::kNone, rng);
  Tensor x = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  std::vector<Tensor> params = mlp.Parameters();
  params.push_back(x);
  testing::ExpectGradientsClose(
      [&] {
        Tensor y = mlp.Forward(x);
        return Mul(Reshape(y, Shape()), Reshape(y, Shape()));
      },
      params);
}

// -- Embedding -------------------------------------------------------------------

TEST(EmbeddingTest, LookupShapes) {
  Rng rng(8);
  Embedding emb(10, 4, rng);
  EXPECT_EQ(emb.Lookup(3).shape(), Shape({4}));
  EXPECT_EQ(emb.LookupMany({1, 2, 3}).shape(), Shape({3, 4}));
  EXPECT_EQ(emb.NumParameters(), 40);
}

TEST(EmbeddingTest, LookupMatchesTableRow) {
  Rng rng(9);
  Embedding emb(5, 3, rng);
  Tensor row = emb.Lookup(2);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(row.at(j), emb.table().at(2, j));
  }
}

TEST(EmbeddingTest, GradientsAreSparse) {
  Rng rng(10);
  Embedding emb(100, 4, rng);
  Tensor loss = Sum(emb.LookupMany({7, 42}));
  Backward(loss);
  const Tensor& table = emb.table();
  EXPECT_EQ(table.touched_rows().size(), 2u);
  // Only rows 7 and 42 have gradients.
  for (int64_t r = 0; r < 100; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 4; ++c) sum += std::fabs(table.grad()[r * 4 + c]);
    if (r == 7 || r == 42) {
      EXPECT_GT(sum, 0.0f) << "row " << r;
    } else {
      EXPECT_FLOAT_EQ(sum, 0.0f) << "row " << r;
    }
  }
}

// Regression: moving an Embedding (e.g. the owning model is relocated when
// a vector reallocates) must not detach the table an optimizer already
// collected, and the moved-from instance must stay fully usable. Moves
// share the table node, so both instances expose the SAME tensor and the
// lazy touched_rows() update path keeps seeing fresh gradients.
TEST(EmbeddingTest, MoveSharesTableAndKeepsOptimizerHandlesLive) {
  Rng rng(12);
  Embedding original(20, 4, rng);
  // An optimizer collects its handles before the move.
  std::vector<Tensor> collected = original.Parameters();
  ASSERT_EQ(collected.size(), 1u);

  Embedding moved = std::move(original);
  // Both instances expose the same underlying table node...
  EXPECT_EQ(moved.table().node(), collected[0].node());
  EXPECT_EQ(original.table().node(), collected[0].node());
  EXPECT_EQ(original.vocab(), 20);

  // ...and gradients produced through EITHER instance land in the handle
  // the optimizer holds, touched rows included.
  Backward(Sum(moved.LookupMany({3})));
  Backward(Sum(original.LookupMany({9})));
  ASSERT_EQ(collected[0].touched_rows().size(), 2u);
  float sum3 = 0, sum9 = 0;
  for (int64_t c = 0; c < 4; ++c) {
    sum3 += std::fabs(collected[0].grad()[3 * 4 + c]);
    sum9 += std::fabs(collected[0].grad()[9 * 4 + c]);
  }
  EXPECT_GT(sum3, 0.0f);
  EXPECT_GT(sum9, 0.0f);

  // Move-assignment shares the same way.
  Rng rng2(13);
  Embedding other(20, 4, rng2);
  other = std::move(moved);
  EXPECT_EQ(other.table().node(), collected[0].node());
  EXPECT_EQ(moved.table().node(), collected[0].node());
}

// -- Optimizer -------------------------------------------------------------------

/// One RMSProp element update as RmsPropOptimizer documents it, for exact
/// expectations: `grad` is the raw gradient, `scale` the clipping factor.
float RmsPropStep(float value, float grad, float* cache, float lr,
                  float wd = 0.0f, float scale = 1.0f) {
  const float g = grad * scale + wd * value;
  *cache = 0.9f * *cache + (1.0f - 0.9f) * g * g;
  return value - lr * g / (std::sqrt(*cache) + 1e-8f);
}

TEST(OptimizerTest, RmsPropConvergesOnQuadratic) {
  // Minimizes f(w) = sum((w - target)^2).
  Rng rng(11);
  Tensor w = Tensor::RandomUniform(Shape({4}), -1, 1, rng, true);
  Tensor target = Tensor::FromVector(Shape({4}), {1.0f, -2.0f, 0.5f, 3.0f});
  RmsPropOptimizer opt({w}, OptimizerOptions{.learning_rate = 0.05f});
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Tensor diff = Sub(w, target);
    Backward(Sum(Mul(diff, diff)));
    opt.Step();
  }
  testing::ExpectVectorNear(w.value(), {1.0f, -2.0f, 0.5f, 3.0f}, 5e-2f);
}

TEST(OptimizerTest, WeightDecayShrinksParameters) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, -1.0f}, true);
  RmsPropOptimizer opt(
      {w}, OptimizerOptions{.learning_rate = 0.1f, .weight_decay = 1.0f});
  float want = 1.0f;
  float cache = 0.0f;
  // Loss is constant zero: only weight decay acts.
  for (int i = 0; i < 10; ++i) {
    opt.ZeroGrad();
    Backward(Mul(Sum(Mul(w, w)), Tensor::Scalar(0.0f)));
    opt.Step();
    want = RmsPropStep(want, 0.0f, &cache, 0.1f, 1.0f);
  }
  EXPECT_EQ(w.at(0), want);
  EXPECT_EQ(w.at(1), -want);
  EXPECT_LT(std::fabs(want), 1.0f);
}

// Row 3 is gathered twice: it gets ONE update from its summed gradient, and
// the clip norm counts it once. Weight decay makes the step depend on the
// clipping scale; the rows nobody gathered are not decayed.
TEST(OptimizerTest, SparseUpdateTouchesOnlyGatheredRows) {
  Rng rng(12);
  Embedding emb(50, 2, rng);
  const std::vector<float> before = emb.table().value();
  RmsPropOptimizer opt(emb.Parameters(),
                       OptimizerOptions{.learning_rate = 0.5f,
                                        .weight_decay = 0.5f,
                                        .clip_norm = 1.0f});
  opt.ZeroGrad();
  Backward(Sum(emb.LookupMany({3, 9, 3})));
  opt.Step();
  // Gradients: 2 in each column of row 3, 1 in each column of row 9.
  const float scale = static_cast<float>(1.0 / std::sqrt(10.0));
  const auto& after = emb.table().value();
  for (int64_t r = 0; r < 50; ++r) {
    for (int64_t c = 0; c < 2; ++c) {
      const size_t i = static_cast<size_t>(r * 2 + c);
      float cache = 0.0f;
      const float grad = r == 3 ? 2.0f : 1.0f;
      const float want = r == 3 || r == 9
                             ? RmsPropStep(before[i], grad, &cache, 0.5f,
                                           0.5f, scale)
                             : before[i];
      EXPECT_EQ(after[i], want) << "row " << r << " col " << c;
    }
  }
}

// RMSProp's first step does not depend on the gradient's scale, so the
// clipped gradient shows in the cache it leaves: the second, unclipped step
// is checked against it.
TEST(OptimizerTest, GradClippingBoundsStep) {
  Tensor w = Tensor::FromVector(Shape({1}), {0.0f}, true);
  RmsPropOptimizer opt(
      {w}, OptimizerOptions{.learning_rate = 1.0f, .clip_norm = 0.5f});
  // Gradient of 100*w is 100, far above the clip threshold.
  opt.ZeroGrad();
  Backward(Mul(Tensor::Scalar(100.0f), Reshape(w, Shape())));
  opt.Step();
  float cache = 0.0f;
  float want = RmsPropStep(0.0f, 100.0f, &cache, 1.0f, 0.0f,
                           static_cast<float>(0.5 / 100.0));
  EXPECT_EQ(w.at(0), want);
  // Gradient 0.1, under the threshold.
  opt.ZeroGrad();
  Backward(Mul(Tensor::Scalar(0.1f), Reshape(w, Shape())));
  opt.Step();
  want = RmsPropStep(want, 0.1f, &cache, 1.0f);
  EXPECT_EQ(w.at(0), want);
}

TEST(OptimizerTest, SkipsParametersWithoutGradients) {
  Tensor used = Tensor::FromVector(Shape({1}), {1.0f}, true);
  Tensor unused = Tensor::FromVector(Shape({1}), {5.0f}, true);
  // Weight decay would shrink `unused` if it were (wrongly) visited.
  RmsPropOptimizer opt(
      {used, unused},
      OptimizerOptions{.learning_rate = 0.1f, .weight_decay = 1.0f});
  opt.ZeroGrad();
  Backward(Reshape(used, Shape()));
  opt.Step();
  EXPECT_EQ(unused.at(0), 5.0f);
  float cache = 0.0f;
  EXPECT_EQ(used.at(0), RmsPropStep(1.0f, 1.0f, &cache, 0.1f, 1.0f));
}

TEST(OptimizerTest, LazySparseUpdateMatchesDenseUpdateOnFixedRows) {
  // When every step touches the same rows (and no weight decay acts), the
  // lazy touched-rows path must produce exactly the table a dense scan
  // does: an untouched row has zero gradient, so a dense update leaves its
  // value and its zero cache as they are. (Rows touched only sometimes do
  // differ: lazy mode freezes the cache of untouched rows, the standard
  // lazy semantics.)
  Rng rng_a(21), rng_b(21);
  Embedding sparse_emb(30, 4, rng_a);
  Embedding dense_emb(30, 4, rng_b);
  ASSERT_EQ(sparse_emb.table().value(), dense_emb.table().value());

  const OptimizerOptions options{.learning_rate = 0.1f};
  RmsPropOptimizer sparse_opt(sparse_emb.Parameters(), options);
  RmsPropOptimizer dense_opt(dense_emb.Parameters(), options);

  const std::vector<int64_t> ids = {4, 17, 29, 17};
  for (int step = 0; step < 10; ++step) {
    // Sparse path: gradients land through Gather, tracked rows only. The
    // loss sums squares, so each step's gradient depends on the values.
    sparse_opt.ZeroGrad();
    Tensor rows = sparse_emb.LookupMany(ids);
    Backward(Sum(Mul(rows, rows)));
    sparse_opt.Step();
    // Dense path: the same gradient, then the touched-row list is cleared
    // so the optimizer takes the dense branch.
    dense_opt.ZeroGrad();
    rows = dense_emb.LookupMany(ids);
    Backward(Sum(Mul(rows, rows)));
    Tensor table = dense_emb.table();
    table.node()->touched_rows.clear();
    dense_opt.Step();
  }
  EXPECT_EQ(sparse_emb.table().value(), dense_emb.table().value());
}

TEST(NoGradTest, OpsBuildNoGraphUnderGuard) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, 2.0f}, true);
  NoGradGuard guard;
  Tensor y = Mul(w, w);
  // No inputs recorded, no gradient requirement: the graph is not built.
  EXPECT_TRUE(y.node()->inputs.empty());
  EXPECT_FALSE(y.requires_grad());
  EXPECT_FLOAT_EQ(y.at(0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(1), 4.0f);
}

TEST(NoGradTest, GuardIsScopedAndNestable) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, 2.0f}, true);
  EXPECT_FALSE(NoGradGuard::enabled());
  {
    NoGradGuard outer;
    EXPECT_TRUE(NoGradGuard::enabled());
    {
      NoGradGuard inner;
      EXPECT_TRUE(NoGradGuard::enabled());
    }
    EXPECT_TRUE(NoGradGuard::enabled());
  }
  EXPECT_FALSE(NoGradGuard::enabled());
  // Graph construction resumes after the guard.
  Tensor y = Mul(w, w);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(y.node()->inputs.size(), 2u);
}

TEST(OptimizerTest, RmsPropAdaptsStepToGradientScale) {
  // Two coordinates with very different gradient magnitudes should move by
  // comparable amounts under RMSProp (unlike plain SGD).
  Tensor w = Tensor::FromVector(Shape({2}), {0.0f, 0.0f}, true);
  RmsPropOptimizer opt({w}, OptimizerOptions{.learning_rate = 0.01f});
  Tensor scale = Tensor::FromVector(Shape({2}), {100.0f, 0.01f});
  for (int i = 0; i < 10; ++i) {
    opt.ZeroGrad();
    Backward(Sum(Mul(scale, w)));
    opt.Step();
  }
  const float move0 = std::fabs(w.at(0));
  const float move1 = std::fabs(w.at(1));
  EXPECT_GT(move1, move0 * 0.5f);
  EXPECT_LT(move1, move0 * 2.0f);
}

}  // namespace
}  // namespace scenerec
