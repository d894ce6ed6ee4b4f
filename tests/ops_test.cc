#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

using testing::ExpectGradientsClose;
using testing::ExpectVectorNear;

// Forward-value tests for every op. Gradient correctness is covered
// separately in grad_check_test.cc.

TEST(OpsForwardTest, Add) {
  Tensor a = Tensor::FromVector(Shape({3}), {1, 2, 3});
  Tensor b = Tensor::FromVector(Shape({3}), {10, 20, 30});
  ExpectVectorNear(Add(a, b).value(), {11, 22, 33});
}

TEST(OpsForwardTest, AddBiasBroadcast) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector(Shape({3}), {10, 20, 30});
  ExpectVectorNear(Add(a, bias).value(), {11, 22, 33, 14, 25, 36});
}

TEST(OpsForwardTest, SubMulDiv) {
  Tensor a = Tensor::FromVector(Shape({2}), {6, 8});
  Tensor b = Tensor::FromVector(Shape({2}), {2, 4});
  ExpectVectorNear(Sub(a, b).value(), {4, 4});
  ExpectVectorNear(Mul(a, b).value(), {12, 32});
  ExpectVectorNear(Div(a, b).value(), {3, 2});
}

TEST(OpsForwardTest, ScaleAddScalarNeg) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, -2});
  ExpectVectorNear(Scale(a, 3.0f).value(), {3, -6});
  ExpectVectorNear(AddScalar(a, 1.5f).value(), {2.5f, -0.5f});
  ExpectVectorNear(Neg(a).value(), {-1, 2});
}

TEST(OpsForwardTest, SigmoidKnownValues) {
  Tensor a = Tensor::FromVector(Shape({3}), {0.0f, 100.0f, -100.0f});
  auto v = Sigmoid(a).value();
  EXPECT_NEAR(v[0], 0.5f, 1e-6);
  EXPECT_NEAR(v[1], 1.0f, 1e-6);
  EXPECT_NEAR(v[2], 0.0f, 1e-6);
}

TEST(OpsForwardTest, TanhReluLeakyRelu) {
  Tensor a = Tensor::FromVector(Shape({2}), {1.0f, -2.0f});
  EXPECT_NEAR(Tanh(a).at(0), std::tanh(1.0f), 1e-6);
  ExpectVectorNear(Relu(a).value(), {1.0f, 0.0f});
  ExpectVectorNear(LeakyRelu(a, 0.1f).value(), {1.0f, -0.2f});
}

TEST(OpsForwardTest, SoftplusStableAtExtremes) {
  Tensor a = Tensor::FromVector(Shape({3}), {0.0f, 50.0f, -50.0f});
  auto v = Softplus(a).value();
  EXPECT_NEAR(v[0], std::log(2.0f), 1e-6);
  EXPECT_NEAR(v[1], 50.0f, 1e-4);
  EXPECT_NEAR(v[2], 0.0f, 1e-6);
  EXPECT_TRUE(std::isfinite(v[1]));
}

TEST(OpsForwardTest, ExpLogSqrt) {
  Tensor a = Tensor::FromVector(Shape({2}), {0.0f, 1.0f});
  ExpectVectorNear(Exp(a).value(), {1.0f, std::exp(1.0f)});
  Tensor b = Tensor::FromVector(Shape({2}), {1.0f, std::exp(2.0f)});
  ExpectVectorNear(Log(b).value(), {0.0f, 2.0f}, 1e-4f);
  Tensor c = Tensor::FromVector(Shape({2}), {4.0f, 9.0f});
  ExpectVectorNear(Sqrt(c).value(), {2.0f, 3.0f});
}

TEST(OpsForwardTest, SumMean) {
  Tensor a = Tensor::FromVector(Shape({4}), {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).scalar(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).scalar(), 2.5f);
}

TEST(OpsForwardTest, SumRowsMeanRows) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  ExpectVectorNear(SumRows(a).value(), {5, 7, 9});
  ExpectVectorNear(MeanRows(a).value(), {2.5f, 3.5f, 4.5f});
}

TEST(OpsForwardTest, MatMul) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  ExpectVectorNear(MatMul(a, b).value(), {58, 64, 139, 154});
}

TEST(OpsForwardTest, MatVec) {
  Tensor w = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor x = Tensor::FromVector(Shape({3}), {1, 0, -1});
  ExpectVectorNear(MatVec(w, x).value(), {-2, -2});
}

TEST(OpsForwardTest, Dot) {
  Tensor a = Tensor::FromVector(Shape({3}), {1, 2, 3});
  Tensor b = Tensor::FromVector(Shape({3}), {4, -5, 6});
  EXPECT_FLOAT_EQ(Dot(a, b).scalar(), 12.0f);
}

TEST(OpsForwardTest, CosineSimilarityKnownValues) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, 0});
  Tensor b = Tensor::FromVector(Shape({2}), {0, 1});
  EXPECT_NEAR(CosineSimilarity(a, b).scalar(), 0.0f, 1e-5);
  Tensor c = Tensor::FromVector(Shape({2}), {2, 0});
  EXPECT_NEAR(CosineSimilarity(a, c).scalar(), 1.0f, 1e-4);
  Tensor d = Tensor::FromVector(Shape({2}), {-3, 0});
  EXPECT_NEAR(CosineSimilarity(a, d).scalar(), -1.0f, 1e-4);
}

TEST(OpsForwardTest, CosineSimilarityZeroVectorIsFinite) {
  Tensor a = Tensor::FromVector(Shape({2}), {0, 0});
  Tensor b = Tensor::FromVector(Shape({2}), {1, 1});
  float v = CosineSimilarity(a, b).scalar();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 0.0f, 1e-3);
}

TEST(OpsForwardTest, Concat) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor b = Tensor::FromVector(Shape({3}), {3, 4, 5});
  Tensor c = Concat({a, b});
  EXPECT_EQ(c.shape(), Shape({5}));
  ExpectVectorNear(c.value(), {1, 2, 3, 4, 5});
}

TEST(OpsForwardTest, StackScalars) {
  Tensor s = Stack({Tensor::Scalar(1), Tensor::Scalar(2), Tensor::Scalar(3)});
  EXPECT_EQ(s.shape(), Shape({3}));
  ExpectVectorNear(s.value(), {1, 2, 3});
}

TEST(OpsForwardTest, StackRows) {
  Tensor r0 = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor r1 = Tensor::FromVector(Shape({2}), {3, 4});
  Tensor m = StackRows({r0, r1});
  EXPECT_EQ(m.shape(), Shape({2, 2}));
  ExpectVectorNear(m.value(), {1, 2, 3, 4});
}

TEST(OpsForwardTest, RowSlice) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  ExpectVectorNear(Row(a, 1).value(), {3, 4});
  ExpectVectorNear(Row(a, 2).value(), {5, 6});
}

TEST(OpsForwardTest, Reshape) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, Shape({6}));
  EXPECT_EQ(r.shape(), Shape({6}));
  ExpectVectorNear(r.value(), {1, 2, 3, 4, 5, 6});
}

TEST(OpsForwardTest, GatherRowsWithDuplicates) {
  Tensor table = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(table, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  ExpectVectorNear(g.value(), {5, 6, 1, 2, 5, 6});
}

TEST(OpsForwardTest, SoftmaxNormalizes) {
  Tensor logits = Tensor::FromVector(Shape({3}), {1.0f, 2.0f, 3.0f});
  auto p = Softmax(logits).value();
  float sum = p[0] + p[1] + p[2];
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(OpsForwardTest, SoftmaxStableForLargeLogits) {
  Tensor logits = Tensor::FromVector(Shape({2}), {1000.0f, 1000.0f});
  auto p = Softmax(logits).value();
  EXPECT_NEAR(p[0], 0.5f, 1e-6);
  EXPECT_NEAR(p[1], 0.5f, 1e-6);
}

TEST(OpsForwardTest, WeightedSumRows) {
  Tensor rows = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor w = Tensor::FromVector(Shape({2}), {0.25f, 0.75f});
  ExpectVectorNear(WeightedSumRows(rows, w).value(),
                   {3.25f, 4.25f, 5.25f});
}

TEST(OpsForwardTest, MaxRows) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 9, 5, 2, 3, 4});
  ExpectVectorNear(MaxRows(a).value(), {5, 9});
}

TEST(OpsForwardTest, MaxRowsGradientGoesToArgmax) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 9, 5, 2},
                                /*requires_grad=*/true);
  Backward(Sum(MaxRows(a)));
  ExpectVectorNear(a.grad(), {0, 1, 1, 0});
}

TEST(OpsForwardTest, L2NormalizeRowsUnitNorm) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {3, 4, 0, 5});
  auto v = L2NormalizeRows(a).value();
  EXPECT_NEAR(v[0], 0.6f, 1e-5);
  EXPECT_NEAR(v[1], 0.8f, 1e-5);
  EXPECT_NEAR(v[2], 0.0f, 1e-5);
  EXPECT_NEAR(v[3], 1.0f, 1e-5);
}

TEST(OpsForwardTest, L2NormalizeZeroRowIsFinite) {
  Tensor a = Tensor::FromVector(Shape({1, 3}), {0, 0, 0});
  const std::vector<float> values = L2NormalizeRows(a).value();
  for (float v : values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(OpsForwardTest, DropoutZeroRateIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::FromVector(Shape({4}), {1, 2, 3, 4});
  ExpectVectorNear(Dropout(a, 0.0f, rng).value(), {1, 2, 3, 4});
}

TEST(OpsForwardTest, DropoutKeepsExpectationAndZeroesSome) {
  Rng rng(2);
  Tensor a = Tensor::Full(Shape({10000}), 1.0f);
  auto v = Dropout(a, 0.3f, rng).value();
  int64_t zeros = 0;
  double sum = 0;
  for (float x : v) {
    if (x == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(x, 1.0f / 0.7f, 1e-5);
    }
    sum += x;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.3, 0.02);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.03);
}

TEST(OpsForwardTest, BprPairLossValues) {
  // pos >> neg -> loss near 0; pos << neg -> loss near (neg - pos).
  Tensor big = BprPairLoss(Tensor::Scalar(10.0f), Tensor::Scalar(-10.0f));
  EXPECT_NEAR(big.scalar(), 0.0f, 1e-4);
  Tensor bad = BprPairLoss(Tensor::Scalar(-10.0f), Tensor::Scalar(10.0f));
  EXPECT_NEAR(bad.scalar(), 20.0f, 1e-3);
  Tensor even = BprPairLoss(Tensor::Scalar(1.0f), Tensor::Scalar(1.0f));
  EXPECT_NEAR(even.scalar(), std::log(2.0f), 1e-5);
}

// -- Fused / batched ops ------------------------------------------------------

TEST(FusedOpsTest, LinearActMatchesComposition) {
  Rng rng(11);
  Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng);
  Tensor x = Tensor::RandomUniform(Shape({4}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng);
  Tensor composed = Sigmoid(Add(MatVec(w, x), b));
  Tensor fused = LinearSigmoid(w, x, b);
  EXPECT_EQ(fused.shape(), Shape({3}));
  ExpectVectorNear(fused.value(), composed.value(), 1e-6f);
}

TEST(FusedOpsTest, LinearActRowsBitwiseEqualsSingleRows) {
  Rng rng(12);
  Tensor w = Tensor::RandomUniform(Shape({5, 7}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({5}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({4, 7}), -1, 1, rng);
  Tensor batched = LinearActRows(w, xs, b, kernels::FusedAct::kLeakyRelu);
  ASSERT_EQ(batched.shape(), Shape({4, 5}));
  for (int64_t r = 0; r < 4; ++r) {
    Tensor single =
        LinearAct(w, Row(xs, r), b, kernels::FusedAct::kLeakyRelu);
    for (int64_t j = 0; j < 5; ++j) {
      // Bitwise equality: the batched path must use the identical per-row
      // kernel (the parallel-vs-serial eval tests depend on this).
      EXPECT_EQ(batched.at(r * 5 + j), single.at(j)) << r << "," << j;
    }
  }
}

TEST(FusedOpsTest, MatVecBatchBitwiseEqualsMatVec) {
  Rng rng(13);
  Tensor w = Tensor::RandomUniform(Shape({6, 3}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({5, 3}), -1, 1, rng);
  Tensor batched = MatVecBatch(w, xs);
  ASSERT_EQ(batched.shape(), Shape({5, 6}));
  for (int64_t r = 0; r < 5; ++r) {
    Tensor single = MatVec(w, Row(xs, r));
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(batched.at(r * 6 + j), single.at(j)) << r << "," << j;
    }
  }
}

TEST(FusedOpsTest, FusedCosineMatchesUnfused) {
  Rng rng(14);
  Tensor a = Tensor::RandomUniform(Shape({9}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({9}), -1, 1, rng);
  EXPECT_NEAR(CosineSimilarity(a, b).scalar(),
              CosineSimilarityUnfused(a, b).scalar(), 1e-5f);
}

TEST(FusedOpsTest, ConcatColsValues) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape({2, 3}), {5, 6, 7, 8, 9, 10});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 5}));
  ExpectVectorNear(c.value(), {1, 2, 5, 6, 7, 3, 4, 8, 9, 10});
}

TEST(FusedOpsTest, GatherRowsValues) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  ExpectVectorNear(g.value(), {5, 6, 1, 2, 5, 6});
}

// -- Gradient checks for the fused / batched ops ------------------------------

TEST(FusedOpsGradTest, LinearActAllActivations) {
  const kernels::FusedAct acts[] = {
      kernels::FusedAct::kNone, kernels::FusedAct::kSigmoid,
      kernels::FusedAct::kTanh, kernels::FusedAct::kRelu,
      kernels::FusedAct::kLeakyRelu};
  for (kernels::FusedAct act : acts) {
    Rng rng(20 + static_cast<int>(act));
    Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
    Tensor x = Tensor::RandomUniform(Shape({4}), 0.1f, 1, rng, true);
    Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
    ExpectGradientsClose([&] { return Sum(LinearAct(w, x, b, act)); },
                         {w, x, b});
  }
}

TEST(FusedOpsGradTest, LinearSigmoid) {
  Rng rng(25);
  Tensor w = Tensor::RandomUniform(Shape({2, 5}), -1, 1, rng, true);
  Tensor x = Tensor::RandomUniform(Shape({5}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({2}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(LinearSigmoid(w, x, b)); }, {w, x, b});
}

TEST(FusedOpsGradTest, LinearActRows) {
  Rng rng(26);
  Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
  Tensor xs = Tensor::RandomUniform(Shape({5, 4}), 0.1f, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  ExpectGradientsClose(
      [&] {
        return Sum(LinearActRows(w, xs, b, kernels::FusedAct::kTanh));
      },
      {w, xs, b});
}

TEST(FusedOpsGradTest, MatVecBatch) {
  Rng rng(27);
  Tensor w = Tensor::RandomUniform(Shape({4, 3}), -1, 1, rng, true);
  Tensor xs = Tensor::RandomUniform(Shape({6, 3}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(MatVecBatch(w, xs)); }, {w, xs});
}

TEST(FusedOpsGradTest, FusedCosineSimilarity) {
  Rng rng(28);
  Tensor a = Tensor::RandomUniform(Shape({6}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({6}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return CosineSimilarity(a, b); }, {a, b});
}

TEST(FusedOpsGradTest, FusedCosineSimilarityNearZeroVectors) {
  // The eps-regularized gradient must stay finite and match finite
  // differences even when one input is (almost) the zero vector.
  Tensor a = Tensor::FromVector(Shape({3}), {1e-3f, -1e-3f, 1e-3f},
                                /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(Shape({3}), {0.5f, -0.25f, 1.0f},
                                /*requires_grad=*/true);
  ExpectGradientsClose([&] { return CosineSimilarity(a, b); }, {a, b},
                       /*eps=*/1e-4f, /*rtol=*/8e-2f, /*atol=*/5e-3f);
}

TEST(FusedOpsGradTest, ConcatCols) {
  Rng rng(29);
  Tensor a = Tensor::RandomUniform(Shape({3, 2}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(ConcatCols(a, b)); }, {a, b});
}

TEST(FusedOpsGradTest, GatherRowsWithDuplicates) {
  Rng rng(30);
  Tensor a = Tensor::RandomUniform(Shape({4, 3}), -1, 1, rng, true);
  ExpectGradientsClose(
      [&] { return Sum(GatherRows(a, {1, 3, 1, 0})); }, {a});
}

// -- Vectorized kernels vs scalar references ----------------------------------

// Shapes straddling the 8-lane accumulator bank and the 4-row GEMM tile:
// 1 and 3 exercise pure tails, 17 a bank plus tail, 63/65 straddle the
// 64-element boundary.
const int64_t kKernelSizes[] = {1, 3, 17, 63, 65};

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.NextDouble()) * 2.0f - 1.0f;
  return v;
}

void ExpectNearRel(const std::vector<float>& got,
                   const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-5f + 1e-4f * std::fabs(want[i]);
    EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

TEST(KernelEquivalenceTest, DotMatchesRef) {
  Rng rng(40);
  for (int64_t n : kKernelSizes) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    const float want = kernels::DotRef(a.data(), b.data(), n);
    const float got = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-5f + 1e-4f * std::fabs(want)) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, GemvMatchesRef) {
  Rng rng(41);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> x = RandomVec(n, rng);
      std::vector<float> want(static_cast<size_t>(m));
      std::vector<float> got(static_cast<size_t>(m));
      kernels::GemvRef(w.data(), m, n, x.data(), want.data());
      kernels::Gemv(w.data(), m, n, x.data(), got.data());
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GemvTAccumMatchesRef) {
  Rng rng(42);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> g = RandomVec(m, rng);
      std::vector<float> want = RandomVec(n, rng);
      std::vector<float> got = want;
      kernels::GemvTAccumRef(w.data(), m, n, g.data(), want.data());
      kernels::GemvTAccum(w.data(), m, n, g.data(), got.data());
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GerAccumMatchesRef) {
  Rng rng(43);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      std::vector<float> g = RandomVec(m, rng);
      std::vector<float> x = RandomVec(n, rng);
      std::vector<float> want = RandomVec(m * n, rng);
      std::vector<float> got = want;
      kernels::GerAccumRef(g.data(), x.data(), m, n, want.data());
      kernels::GerAccum(g.data(), x.data(), m, n, got.data());
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GemmMatchesRef) {
  Rng rng(44);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      const int64_t k = 65 - (m % 3);  // vary k a little too
      std::vector<float> a = RandomVec(m * k, rng);
      std::vector<float> b = RandomVec(k * n, rng);
      std::vector<float> want(static_cast<size_t>(m * n));
      std::vector<float> got(static_cast<size_t>(m * n));
      kernels::GemmRef(a.data(), b.data(), want.data(), m, k, n);
      kernels::Gemm(a.data(), b.data(), got.data(), m, k, n);
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GemmNTAccumMatchesRef) {
  Rng rng(45);
  for (int64_t m : kKernelSizes) {
    const int64_t n = 33;
    const int64_t k = 17;
    std::vector<float> g = RandomVec(m * n, rng);
    std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> want = RandomVec(m * k, rng);
    std::vector<float> got = want;
    kernels::GemmNTAccumRef(g.data(), b.data(), want.data(), m, n, k);
    kernels::GemmNTAccum(g.data(), b.data(), got.data(), m, n, k);
    ExpectNearRel(got, want);
  }
}

TEST(KernelEquivalenceTest, GemmTNAccumMatchesRef) {
  Rng rng(46);
  for (int64_t n : kKernelSizes) {
    const int64_t m = 33;
    const int64_t k = 17;
    std::vector<float> a = RandomVec(m * k, rng);
    std::vector<float> g = RandomVec(m * n, rng);
    std::vector<float> want = RandomVec(k * n, rng);
    std::vector<float> got = want;
    kernels::GemmTNAccumRef(a.data(), g.data(), want.data(), m, k, n);
    kernels::GemmTNAccum(a.data(), g.data(), got.data(), m, k, n);
    ExpectNearRel(got, want);
  }
}

TEST(KernelEquivalenceTest, GemvRowsBitwiseEqualsGemv) {
  Rng rng(47);
  const int64_t m = 5, n = 17, rows = 4;
  std::vector<float> w = RandomVec(m * n, rng);
  std::vector<float> xs = RandomVec(rows * n, rng);
  std::vector<float> batched(static_cast<size_t>(rows * m));
  kernels::GemvRows(w.data(), m, n, xs.data(), rows, batched.data());
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<float> single(static_cast<size_t>(m));
    kernels::Gemv(w.data(), m, n, xs.data() + r * n, single.data());
    for (int64_t i = 0; i < m; ++i) {
      EXPECT_EQ(batched[static_cast<size_t>(r * m + i)],
                single[static_cast<size_t>(i)])
          << r << "," << i;
    }
  }
}

TEST(KernelEquivalenceTest, GemvMultiMatchesRef) {
  Rng rng(50);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      const int64_t nq = 5;
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> xs = RandomVec(nq * n, rng);
      std::vector<float> want(static_cast<size_t>(nq * m));
      std::vector<float> got(static_cast<size_t>(nq * m));
      kernels::GemvMultiRef(w.data(), m, n, xs.data(), nq, want.data());
      kernels::GemvMulti(w.data(), m, n, xs.data(), nq, got.data());
      ExpectNearRel(got, want);
    }
  }
}

// nq = 1..9 covers every dispatch shape: on AVX2 every bank width 1..8
// alone and a full group of eight plus one; without AVX2 the scalar
// remainder alone and the 4-query SSE2 group plus remainders. Bitwise —
// GemvMulti's contract is that batching queries cannot change a single bit
// of any result.
TEST(KernelEquivalenceTest, GemvMultiBitwiseEqualsGemv) {
  Rng rng(51);
  for (int64_t nq = 1; nq <= 9; ++nq) {
    for (int64_t n : {17LL, 64LL}) {
      const int64_t m = 37;
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> xs = RandomVec(nq * n, rng);
      std::vector<float> batched(static_cast<size_t>(nq * m));
      kernels::GemvMulti(w.data(), m, n, xs.data(), nq, batched.data());
      for (int64_t q = 0; q < nq; ++q) {
        std::vector<float> single(static_cast<size_t>(m));
        kernels::Gemv(w.data(), m, n, xs.data() + q * n, single.data());
        for (int64_t i = 0; i < m; ++i) {
          EXPECT_EQ(batched[static_cast<size_t>(q * m + i)],
                    single[static_cast<size_t>(i)])
              << "nq=" << nq << " n=" << n << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemvMultiEmptyMatrix) {
  Rng rng(52);
  const int64_t n = 8, nq = 6;
  std::vector<float> xs = RandomVec(nq * n, rng);
  std::vector<float> ys(1, 123.0f);  // must stay untouched for m = 0
  kernels::GemvMulti(nullptr, 0, n, xs.data(), nq, ys.data());
  EXPECT_EQ(ys[0], 123.0f);
}

const kernels::FusedAct kAllActs[] = {
    kernels::FusedAct::kNone, kernels::FusedAct::kSigmoid,
    kernels::FusedAct::kTanh, kernels::FusedAct::kRelu,
    kernels::FusedAct::kLeakyRelu};

// The factorized rating-head kernel against its scalar twin: bitwise, for
// every activation, at widths straddling the 8-lane bank (64 is the
// serving width), over repeated and unordered table rows.
TEST(KernelEquivalenceTest, AddActDotRowsMatchesRefBitwise) {
  Rng rng(53);
  const int64_t table_rows = 11;
  const std::vector<int64_t> idx = {3, 0, 10, 3, 7, 1, 9, 9, 4};
  const int64_t rows = static_cast<int64_t>(idx.size());
  for (int64_t d : {1LL, 3LL, 17LL, 63LL, 64LL, 65LL}) {
    const std::vector<float> q = RandomVec(d, rng);
    const std::vector<float> table = RandomVec(table_rows * d, rng);
    const std::vector<float> w2 = RandomVec(d, rng);
    const float b2 = RandomVec(1, rng)[0];
    for (kernels::FusedAct act : kAllActs) {
      std::vector<float> want(static_cast<size_t>(rows));
      std::vector<float> got(static_cast<size_t>(rows));
      kernels::AddActDotRowsRef(q.data(), table.data(), idx.data(), rows, d,
                                w2.data(), b2, act, kernels::kLeakySlope,
                                want.data());
      kernels::AddActDotRows(q.data(), table.data(), idx.data(), rows, d,
                             w2.data(), b2, act, kernels::kLeakySlope,
                             got.data());
      for (int64_t r = 0; r < rows; ++r) {
        EXPECT_EQ(got[static_cast<size_t>(r)], want[static_cast<size_t>(r)])
            << "d=" << d << " act=" << static_cast<int>(act) << " r=" << r;
      }
      // The documented form: the output layer of a {., d, 1} MLP, i.e.
      // Dot(w2, act(q + t)) + b2 with the shared Dot kernel.
      for (int64_t r = 0; r < rows; ++r) {
        const float* t = table.data() + idx[static_cast<size_t>(r)] * d;
        std::vector<float> h(static_cast<size_t>(d));
        for (int64_t j = 0; j < d; ++j) {
          h[static_cast<size_t>(j)] =
              kernels::ActApply(act, q[static_cast<size_t>(j)] + t[j],
                                kernels::kLeakySlope);
        }
        EXPECT_EQ(got[static_cast<size_t>(r)],
                  kernels::Dot(w2.data(), h.data(), d) + b2)
            << "d=" << d << " act=" << static_cast<int>(act) << " r=" << r;
      }
    }
  }
}

// A row's score does not depend on how many rows share the call.
TEST(KernelEquivalenceTest, AddActDotRowsRowIndependentOfBatch) {
  Rng rng(54);
  const int64_t d = 64;
  const int64_t rows = 37;
  const std::vector<float> q = RandomVec(d, rng);
  const std::vector<float> table = RandomVec(rows * d, rng);
  const std::vector<float> w2 = RandomVec(d, rng);
  std::vector<int64_t> idx(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) idx[static_cast<size_t>(r)] = rows - 1 - r;
  for (kernels::FusedAct act : kAllActs) {
    std::vector<float> whole(static_cast<size_t>(rows));
    kernels::AddActDotRows(q.data(), table.data(), idx.data(), rows, d,
                           w2.data(), 0.25f, act, kernels::kLeakySlope,
                           whole.data());
    for (int64_t chunk : {1LL, 4LL, 8LL, 9LL}) {
      std::vector<float> pieces(static_cast<size_t>(rows));
      for (int64_t begin = 0; begin < rows; begin += chunk) {
        const int64_t len = std::min(chunk, rows - begin);
        kernels::AddActDotRows(q.data(), table.data(), idx.data() + begin,
                               len, d, w2.data(), 0.25f, act,
                               kernels::kLeakySlope, pieces.data() + begin);
      }
      for (int64_t r = 0; r < rows; ++r) {
        EXPECT_EQ(pieces[static_cast<size_t>(r)],
                  whole[static_cast<size_t>(r)])
            << "chunk=" << chunk << " act=" << static_cast<int>(act)
            << " r=" << r;
      }
    }
  }
}

// -- Arena-backed autograd ----------------------------------------------------

TEST(ArenaOpsTest, OpsAllocateFromActiveArenaAndLeafGradsStayOnHeap) {
  Tensor w = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4},
                                /*requires_grad=*/true);
  Tensor loss;
  const Arena* arena = nullptr;
  {
    ArenaScope scope;
    arena = CurrentArena();
    ASSERT_NE(arena, nullptr);
    Tensor x = Tensor::FromVector(Shape({2}), {1, -1});
    loss = Sum(MatVec(w, x));
    EXPECT_TRUE(arena->Owns(loss.value().data()));
    Backward(loss);
    // Leaf gradients feed the optimizer across the arena reset boundary, so
    // they must live on the heap even while a scope is active.
    EXPECT_FALSE(arena->Owns(w.grad().data()));
  }
  // Reset-on-entry: values stay readable after the scope exits (the trainer
  // reads shard losses after the parallel join).
  EXPECT_FLOAT_EQ(loss.scalar(), -2.0f);  // (1-2) + (3-4)
  ExpectVectorNear(w.grad(), {1, -1, 1, -1});
}

TEST(ArenaOpsTest, ScopedStepsProduceSameResultsAsHeap) {
  Rng rng(50);
  Tensor w = Tensor::RandomUniform(Shape({4, 4}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({4}), -1, 1, rng, true);
  Tensor x = Tensor::RandomUniform(Shape({4}), -1, 1, rng);

  Tensor heap_loss = Sum(LinearSigmoid(w, x, b));
  Backward(heap_loss);
  const std::vector<float> heap_grad = w.grad();
  w.ZeroGrad();
  b.ZeroGrad();

  float arena_loss = 0.0f;
  {
    ArenaScope scope;
    Tensor loss = Sum(LinearSigmoid(w, x, b));
    Backward(loss);
    arena_loss = loss.scalar();
  }
  EXPECT_FLOAT_EQ(arena_loss, heap_loss.scalar());
  for (size_t i = 0; i < heap_grad.size(); ++i) {
    EXPECT_FLOAT_EQ(w.grad()[i], heap_grad[i]) << i;
  }
}

TEST(ArenaOpsTest, ScopeReentryReclaimsMemory) {
  size_t used_after_first = 0;
  {
    ArenaScope scope;
    Tensor a = Tensor::Zeros(Shape({1024}));
    used_after_first = CurrentArena()->bytes_used();
    EXPECT_GE(used_after_first, 1024 * sizeof(float));
  }
  {
    ArenaScope scope;
    // Entry reset: the previous step's bytes are reclaimed before this
    // scope allocates anything.
    EXPECT_EQ(CurrentArena()->bytes_used(), 0u);
    Tensor b = Tensor::Zeros(Shape({1024}));
    EXPECT_EQ(CurrentArena()->bytes_used(), used_after_first);
  }
}

}  // namespace
}  // namespace scenerec
