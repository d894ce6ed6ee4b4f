#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

using testing::ExpectVectorNear;

// -- Shape ----------------------------------------------------------------------

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(ShapeTest, VectorAndMatrix) {
  Shape v({5});
  EXPECT_EQ(v.rank(), 1);
  EXPECT_EQ(v.dim(0), 5);
  EXPECT_EQ(v.num_elements(), 5);
  Shape m({3, 4});
  EXPECT_EQ(m.rank(), 2);
  EXPECT_EQ(m.num_elements(), 12);
  EXPECT_EQ(m.ToString(), "[3, 4]");
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({6}), Shape({2, 3}));
  EXPECT_EQ(Shape(), Shape());
}

// -- Tensor factories --------------------------------------------------------------

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros(Shape({2, 2}));
  ExpectVectorNear(z.value(), {0, 0, 0, 0});
  Tensor f = Tensor::Full(Shape({3}), 1.5f);
  ExpectVectorNear(f.value(), {1.5f, 1.5f, 1.5f});
  EXPECT_FALSE(z.requires_grad());
}

TEST(TensorTest, ScalarFactory) {
  Tensor s = Tensor::Scalar(3.25f);
  EXPECT_EQ(s.shape().rank(), 0);
  EXPECT_FLOAT_EQ(s.scalar(), 3.25f);
}

TEST(TensorTest, FromVectorAndAccessors) {
  Tensor t = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at(0, 2), 3);
  EXPECT_FLOAT_EQ(t.at(1, 1), 5);
  EXPECT_EQ(t.num_elements(), 6);
}

TEST(TensorTest, RandomUniformWithinBounds) {
  Rng rng(1);
  Tensor t = Tensor::RandomUniform(Shape({1000}), -0.5f, 0.5f, rng);
  for (float v : t.value()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
}

TEST(TensorTest, RandomNormalStddev) {
  Rng rng(2);
  Tensor t = Tensor::RandomNormal(Shape({20000}), 0.1f, rng);
  double sq = 0.0;
  for (float v : t.value()) sq += double(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 20000.0), 0.1, 0.01);
}

TEST(TensorTest, XavierBound) {
  Rng rng(3);
  Tensor w = Tensor::XavierUniform(64, 64, rng);
  EXPECT_TRUE(w.requires_grad());
  const float bound = std::sqrt(6.0f / 128.0f);
  for (float v : w.value()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(TensorTest, HandleSharesStorage) {
  Tensor a = Tensor::Zeros(Shape({2}));
  Tensor b = a;  // alias
  b.mutable_value()[0] = 7.0f;
  EXPECT_FLOAT_EQ(a.at(0), 7.0f);
}

// The parameter-write stamp behind Module::ParameterVersion: handing the
// value out for writing or rebinding the storage counts as a write, reading
// never does, and every handle of a node shares its count.
TEST(TensorTest, WriteCountMovesOnMutableValueAndBindExternalOnly) {
  Tensor t = Tensor::FromVector(Shape({2}), {1.0f, 2.0f});
  EXPECT_EQ(t.write_count(), 0u);
  EXPECT_FLOAT_EQ(t.value()[1], 2.0f);
  EXPECT_FLOAT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.write_count(), 0u);
  t.mutable_value()[0] = 3.0f;
  EXPECT_EQ(t.write_count(), 1u);
  Tensor alias = t;
  auto storage = std::make_shared<std::vector<float>>(
      std::vector<float>{5.0f, 6.0f});
  alias.BindExternal(
      FloatBuffer::Borrowed(storage->data(), storage->size(), storage));
  EXPECT_EQ(t.write_count(), 2u);
  EXPECT_FLOAT_EQ(t.at(1), 6.0f);
  EXPECT_EQ(t.write_count(), 2u);
}

// -- Backward mechanics ----------------------------------------------------------

TEST(TensorTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor loss1 = Mul(x, x);
  Backward(loss1);
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5);
  Tensor loss2 = Mul(x, x);
  Backward(loss2);
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5);  // accumulated
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(TensorTest, DiamondGraphGradient) {
  // y = (x + x) * x = 2x^2, dy/dx = 4x.
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor s = Add(x, x);
  Tensor y = Mul(s, x);
  Backward(y);
  EXPECT_NEAR(x.grad()[0], 12.0f, 1e-4);
}

TEST(TensorTest, NoGradThroughFrozenTensor) {
  Tensor x = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor frozen = Tensor::Scalar(5.0f, /*requires_grad=*/false);
  Tensor y = Mul(x, frozen);
  Backward(y);
  EXPECT_NEAR(x.grad()[0], 5.0f, 1e-5);
  EXPECT_TRUE(frozen.grad().empty());
}

TEST(TensorTest, ReusedSubgraphCountsTwice) {
  // y = s + s with s = x*x: dy/dx = 4x.
  Tensor x = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor s = Mul(x, x);
  Tensor y = Add(s, s);
  Backward(y);
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5);
}

TEST(TensorTest, SparseZeroGradClearsTouchedRowsOnly) {
  Tensor table =
      Tensor::FromVector(Shape({4, 2}), {1, 1, 2, 2, 3, 3, 4, 4},
                         /*requires_grad=*/true);
  Tensor g = Gather(table, {1, 3});
  Tensor loss = Sum(g);
  Backward(loss);
  EXPECT_EQ(table.touched_rows().size(), 2u);
  EXPECT_FLOAT_EQ(table.grad()[2], 1.0f);  // row 1
  EXPECT_FLOAT_EQ(table.grad()[6], 1.0f);  // row 3
  table.ZeroGrad();
  EXPECT_TRUE(table.touched_rows().empty());
  for (float v : table.grad()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(TensorTest, DebugStringMentionsShape) {
  Tensor t = Tensor::FromVector(Shape({2}), {1.0f, 2.0f});
  EXPECT_NE(t.DebugString().find("[2]"), std::string::npos);
}

}  // namespace
}  // namespace scenerec
