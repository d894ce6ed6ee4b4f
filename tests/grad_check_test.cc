#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

using testing::ExpectGradientsClose;

// Numerical-vs-analytic gradient checks for every differentiable op. Each
// test wires the op into a scalar loss (via Sum/Mean of a projection) and
// compares Backward's output against central finite differences.

Tensor RandomVec(int64_t n, Rng& rng) {
  return Tensor::RandomUniform(Shape({n}), -1.0f, 1.0f, rng,
                               /*requires_grad=*/true);
}

Tensor RandomMat(int64_t r, int64_t c, Rng& rng) {
  return Tensor::RandomUniform(Shape({r, c}), -1.0f, 1.0f, rng,
                               /*requires_grad=*/true);
}

/// A fixed projection vector to turn vector outputs into a scalar loss with
/// non-uniform weights (catches transposed/mixed-up gradients that a plain
/// Sum would mask).
Tensor Projection(int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = 0.3f + 0.2f * static_cast<float>(i % 5);
  }
  return Tensor::FromVector(Shape({n}), std::move(v));
}

TEST(GradCheckTest, Add) {
  Rng rng(1);
  Tensor a = RandomVec(5, rng), b = RandomVec(5, rng);
  ExpectGradientsClose(
      [&] { return Dot(Add(a, b), Projection(5)); }, {a, b});
}

TEST(GradCheckTest, AddBiasBroadcast) {
  Rng rng(2);
  Tensor a = RandomMat(3, 4, rng);
  Tensor bias = RandomVec(4, rng);
  ExpectGradientsClose(
      [&] { return Dot(SumRows(Add(a, bias)), Projection(4)); }, {a, bias});
}

TEST(GradCheckTest, Sub) {
  Rng rng(3);
  Tensor a = RandomVec(4, rng), b = RandomVec(4, rng);
  ExpectGradientsClose(
      [&] { return Dot(Sub(a, b), Projection(4)); }, {a, b});
}

TEST(GradCheckTest, Mul) {
  Rng rng(4);
  Tensor a = RandomVec(4, rng), b = RandomVec(4, rng);
  ExpectGradientsClose(
      [&] { return Dot(Mul(a, b), Projection(4)); }, {a, b});
}

TEST(GradCheckTest, Div) {
  Rng rng(5);
  Tensor a = RandomVec(4, rng);
  // Keep the denominator away from zero.
  Tensor b = Tensor::RandomUniform(Shape({4}), 0.5f, 1.5f, rng, true);
  ExpectGradientsClose(
      [&] { return Dot(Div(a, b), Projection(4)); }, {a, b});
}

TEST(GradCheckTest, ScaleAndAddScalar) {
  Rng rng(6);
  Tensor a = RandomVec(4, rng);
  ExpectGradientsClose(
      [&] { return Dot(Scale(AddScalar(a, 0.7f), -2.5f), Projection(4)); },
      {a});
}

TEST(GradCheckTest, Sigmoid) {
  Rng rng(7);
  Tensor a = RandomVec(5, rng);
  ExpectGradientsClose(
      [&] { return Dot(Sigmoid(a), Projection(5)); }, {a});
}

TEST(GradCheckTest, Tanh) {
  Rng rng(8);
  Tensor a = RandomVec(5, rng);
  ExpectGradientsClose([&] { return Dot(Tanh(a), Projection(5)); }, {a});
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Rng rng(9);
  // Keep values away from 0 where ReLU is non-differentiable.
  std::vector<float> v{0.8f, -0.6f, 1.2f, -1.5f, 0.4f};
  Tensor a = Tensor::FromVector(Shape({5}), v, true);
  ExpectGradientsClose([&] { return Dot(Relu(a), Projection(5)); }, {a});
}

TEST(GradCheckTest, LeakyReluAwayFromKink) {
  std::vector<float> v{0.8f, -0.6f, 1.2f, -1.5f, 0.4f};
  Tensor a = Tensor::FromVector(Shape({5}), v, true);
  ExpectGradientsClose(
      [&] { return Dot(LeakyRelu(a, 0.1f), Projection(5)); }, {a});
}

TEST(GradCheckTest, Softplus) {
  Rng rng(10);
  Tensor a = RandomVec(5, rng);
  ExpectGradientsClose([&] { return Dot(Softplus(a), Projection(5)); }, {a});
}

TEST(GradCheckTest, ExpLog) {
  Rng rng(11);
  Tensor a = Tensor::RandomUniform(Shape({4}), 0.5f, 2.0f, rng, true);
  ExpectGradientsClose([&] { return Dot(Exp(a), Projection(4)); }, {a});
  ExpectGradientsClose([&] { return Dot(Log(a), Projection(4)); }, {a});
}

TEST(GradCheckTest, Sqrt) {
  Rng rng(12);
  Tensor a = Tensor::RandomUniform(Shape({4}), 0.5f, 2.0f, rng, true);
  ExpectGradientsClose([&] { return Dot(Sqrt(a), Projection(4)); }, {a});
}

TEST(GradCheckTest, SumAndMean) {
  Rng rng(13);
  Tensor a = RandomMat(2, 3, rng);
  ExpectGradientsClose([&] { return Sum(a); }, {a});
  ExpectGradientsClose([&] { return Mean(a); }, {a});
}

TEST(GradCheckTest, SumRowsMeanRows) {
  Rng rng(14);
  Tensor a = RandomMat(3, 4, rng);
  ExpectGradientsClose(
      [&] { return Dot(SumRows(a), Projection(4)); }, {a});
  ExpectGradientsClose(
      [&] { return Dot(MeanRows(a), Projection(4)); }, {a});
}

TEST(GradCheckTest, MatMulBothSides) {
  Rng rng(15);
  Tensor a = RandomMat(3, 4, rng);
  Tensor b = RandomMat(4, 2, rng);
  ExpectGradientsClose(
      [&] { return Dot(SumRows(MatMul(a, b)), Projection(2)); }, {a, b});
}

TEST(GradCheckTest, MatVecBothSides) {
  Rng rng(16);
  Tensor w = RandomMat(3, 5, rng);
  Tensor x = RandomVec(5, rng);
  ExpectGradientsClose(
      [&] { return Dot(MatVec(w, x), Projection(3)); }, {w, x});
}

TEST(GradCheckTest, Dot) {
  Rng rng(17);
  Tensor a = RandomVec(6, rng), b = RandomVec(6, rng);
  ExpectGradientsClose([&] { return Dot(a, b); }, {a, b});
}

TEST(GradCheckTest, CosineSimilarity) {
  Rng rng(18);
  Tensor a = RandomVec(5, rng), b = RandomVec(5, rng);
  ExpectGradientsClose([&] { return CosineSimilarity(a, b); }, {a, b});
}

TEST(GradCheckTest, Concat) {
  Rng rng(19);
  Tensor a = RandomVec(2, rng), b = RandomVec(3, rng);
  ExpectGradientsClose(
      [&] { return Dot(Concat({a, b}), Projection(5)); }, {a, b});
}

TEST(GradCheckTest, StackScalars) {
  Rng rng(20);
  Tensor a = Tensor::Scalar(rng.NextFloat(-1, 1), true);
  Tensor b = Tensor::Scalar(rng.NextFloat(-1, 1), true);
  ExpectGradientsClose(
      [&] { return Dot(Stack({a, b, a}), Projection(3)); }, {a, b});
}

TEST(GradCheckTest, StackRows) {
  Rng rng(21);
  Tensor a = RandomVec(3, rng), b = RandomVec(3, rng);
  ExpectGradientsClose(
      [&] { return Dot(SumRows(StackRows({a, b})), Projection(3)); }, {a, b});
}

TEST(GradCheckTest, RowSlice) {
  Rng rng(22);
  Tensor a = RandomMat(4, 3, rng);
  ExpectGradientsClose([&] { return Dot(Row(a, 2), Projection(3)); }, {a});
}

TEST(GradCheckTest, Reshape) {
  Rng rng(23);
  Tensor a = RandomMat(2, 3, rng);
  ExpectGradientsClose(
      [&] { return Dot(Reshape(a, Shape({6})), Projection(6)); }, {a});
}

TEST(GradCheckTest, GatherWithDuplicateIndices) {
  Rng rng(24);
  Tensor table = RandomMat(5, 3, rng);
  ExpectGradientsClose(
      [&] {
        return Dot(SumRows(Gather(table, {1, 3, 1})), Projection(3));
      },
      {table});
}

TEST(GradCheckTest, Softmax) {
  Rng rng(25);
  Tensor logits = RandomVec(5, rng);
  ExpectGradientsClose(
      [&] { return Dot(Softmax(logits), Projection(5)); }, {logits});
}

TEST(GradCheckTest, WeightedSumRows) {
  Rng rng(26);
  Tensor rows = RandomMat(4, 3, rng);
  Tensor w = RandomVec(4, rng);
  ExpectGradientsClose(
      [&] { return Dot(WeightedSumRows(rows, w), Projection(3)); },
      {rows, w});
}

TEST(GradCheckTest, MaxRowsAwayFromTies) {
  // Distinct values so the argmax is stable under the finite-difference
  // perturbation.
  Tensor a = Tensor::FromVector(Shape({3, 2}), {0.1f, 0.9f, 0.5f, 0.2f,
                                                 0.3f, 0.4f},
                                /*requires_grad=*/true);
  ExpectGradientsClose([&] { return Dot(MaxRows(a), Projection(2)); }, {a});
}

TEST(GradCheckTest, L2NormalizeRows) {
  Rng rng(30);
  Tensor a = Tensor::RandomUniform(Shape({3, 4}), 0.5f, 1.5f, rng, true);
  ExpectGradientsClose(
      [&] { return Dot(SumRows(L2NormalizeRows(a)), Projection(4)); }, {a});
}

TEST(GradCheckTest, DropoutMaskIsConsistent) {
  // The dropout mask must be identical in forward and backward: gradient of
  // sum(dropout(x)) w.r.t. x equals the mask itself.
  Rng rng(31);
  Tensor a = Tensor::RandomUniform(Shape({50}), 0.5f, 1.5f, rng, true);
  Tensor dropped = Dropout(a, 0.4f, rng);
  Backward(Sum(dropped));
  for (size_t i = 0; i < a.grad().size(); ++i) {
    const float mask = dropped.value()[i] / a.value()[i];
    EXPECT_NEAR(a.grad()[i], mask, 1e-4) << "element " << i;
  }
}

TEST(GradCheckTest, BprPairLoss) {
  Rng rng(27);
  Tensor pos = Tensor::Scalar(rng.NextFloat(-1, 1), true);
  Tensor neg = Tensor::Scalar(rng.NextFloat(-1, 1), true);
  ExpectGradientsClose([&] { return BprPairLoss(pos, neg); }, {pos, neg});
}

TEST(GradCheckTest, AttentionPattern) {
  // The full scene-attention composition used by SceneRec: cosine logits
  // over neighbor summaries -> softmax -> weighted aggregation.
  Rng rng(28);
  Tensor query = RandomVec(4, rng);
  Tensor key0 = RandomVec(4, rng);
  Tensor key1 = RandomVec(4, rng);
  Tensor values = RandomMat(2, 4, rng);
  ExpectGradientsClose(
      [&] {
        Tensor logits = Stack({CosineSimilarity(query, key0),
                               CosineSimilarity(query, key1)});
        Tensor alpha = Softmax(logits);
        return Dot(WeightedSumRows(values, alpha), Projection(4));
      },
      {query, key0, key1, values});
}

TEST(GradCheckTest, DeepComposition) {
  // A miniature two-layer network end to end.
  Rng rng(29);
  Tensor w1 = RandomMat(4, 3, rng);
  Tensor b1 = RandomVec(4, rng);
  Tensor w2 = RandomMat(2, 4, rng);
  Tensor b2 = RandomVec(2, rng);
  Tensor x = RandomVec(3, rng);
  ExpectGradientsClose(
      [&] {
        Tensor h = Tanh(Add(MatVec(w1, x), b1));
        Tensor y = Add(MatVec(w2, h), b2);
        return Sum(Mul(y, y));
      },
      {w1, b1, w2, b2, x});
}

}  // namespace
}  // namespace scenerec
