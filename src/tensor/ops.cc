#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "common/trace.h"
#include "tensor/kernels.h"

/// Forward-op span: the per-op half of a trace's flamegraph (cat "op",
/// gated on TraceOptions::op_floor_ns). The backward half is emitted
/// centrally in Backward() from TensorNode::op_name.
#define TRACE_OP(opname) \
  SCENEREC_TRACE_SPAN(opname, "op", ::scenerec::trace::Floor::kOp)

namespace scenerec {

using internal_tensor::TensorNode;

namespace {

/// Builds an op result node named `name` (a static string, kept on the node
/// for backward-pass attribution). `backward` is stored only when some input
/// requires gradients; it may assume out->grad is allocated. The value
/// buffer lands in the step arena when one is active (see tensor/arena.h).
Tensor MakeOp(const char* name, Shape shape, FloatBuffer value,
              std::vector<Tensor> inputs, std::function<void()> backward) {
  auto node = std::make_shared<TensorNode>();
  node->op_name = name;
  node->shape = std::move(shape);
  node->value = std::move(value);
  if (NoGradGuard::enabled()) {
    // Inference mode: forward value only, no graph edges.
    return Tensor(std::move(node));
  }
  bool requires_grad = false;
  node->inputs.reserve(inputs.size());
  for (const Tensor& t : inputs) {
    SCENEREC_CHECK(t.defined());
    requires_grad = requires_grad || t.requires_grad();
    node->inputs.push_back(t.node());
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->backward_fn = std::move(backward);
  return Tensor(std::move(node));
}

/// Accumulates `src` into node's grad buffer (allocating on demand).
/// Leaf parameters may be shared between concurrent Backward passes, so
/// accumulation into them is serialized (see LockGradIfSharedLeaf).
void AccumulateGrad(const Tensor::NodePtr& node, const float* src, size_t n) {
  if (!node->requires_grad) return;
  auto lock = internal_tensor::LockGradIfSharedLeaf(node.get());
  node->EnsureGrad();
  kernels::Axpy(1.0f, src, node->grad.data(), static_cast<int64_t>(n));
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  TRACE_OP("Add");
  const bool bias_broadcast =
      a.shape().rank() == 2 && b.shape().rank() == 1 &&
      a.shape().dim(1) == b.shape().dim(0);
  if (!bias_broadcast) {
    SCENEREC_CHECK(a.shape() == b.shape())
        << a.shape().ToString() << "vs" << b.shape().ToString();
  }
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  if (bias_broadcast) {
    const int64_t rows = a.shape().dim(0);
    const int64_t cols = a.shape().dim(1);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        out[r * cols + c] = av[r * cols + c] + bv[c];
      }
    }
  } else {
    for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] + bv[i];
  }
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("Add", a.shape(), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on, bias_broadcast]() {
      const auto& g = on->grad;
      AccumulateGrad(an, g.data(), g.size());
      if (!bn->requires_grad) return;
      auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
      bn->EnsureGrad();
      if (bias_broadcast) {
        const int64_t rows = an->shape.dim(0);
        const int64_t cols = an->shape.dim(1);
        for (int64_t r = 0; r < rows; ++r) {
          kernels::Axpy(1.0f, g.data() + r * cols, bn->grad.data(), cols);
        }
      } else {
        kernels::Axpy(1.0f, g.data(), bn->grad.data(),
                      static_cast<int64_t>(g.size()));
      }
    };
  }
  return result;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  TRACE_OP("Sub");
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] - bv[i];
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("Sub", a.shape(), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on]() {
      const auto& g = on->grad;
      AccumulateGrad(an, g.data(), g.size());
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        kernels::Axpy(-1.0f, g.data(), bn->grad.data(),
                      static_cast<int64_t>(g.size()));
      }
    };
  }
  return result;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  TRACE_OP("Mul");
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] * bv[i];
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("Mul", a.shape(), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on]() {
      const auto& g = on->grad;
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          an->grad[i] += g[i] * bn->value[i];
        }
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          bn->grad[i] += g[i] * an->value[i];
        }
      }
    };
  }
  return result;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  TRACE_OP("Div");
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] / bv[i];
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("Div", a.shape(), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on]() {
      const auto& g = on->grad;
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          an->grad[i] += g[i] / bn->value[i];
        }
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          const float bval = bn->value[i];
          bn->grad[i] -= g[i] * an->value[i] / (bval * bval);
        }
      }
    };
  }
  return result;
}

namespace {

/// Shared implementation for unary elementwise ops.
/// `forward` maps x -> y; `dydx` maps (x, y) -> local derivative.
template <typename Fwd, typename Dydx>
Tensor UnaryOp(const char* name, const Tensor& a, Fwd forward, Dydx dydx) {
  trace::SpanScope op_span(name, "op", trace::Floor::kOp);
  const auto& av = a.value();
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = forward(av[i]);
  auto an = a.node();
  auto result = MakeOp(name, a.shape(), std::move(out), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on, dydx]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      const auto& g = on->grad;
      for (size_t i = 0; i < g.size(); ++i) {
        an->grad[i] += g[i] * dydx(an->value[i], on->value[i]);
      }
    };
  }
  return result;
}

}  // namespace

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      "Scale", a, [s](float x) { return s * x; },
      [s](float, float) { return s; });
}

Tensor AddScalar(const Tensor& a, float c) {
  return UnaryOp(
      "AddScalar", a, [c](float x) { return x + c; },
      [](float, float) { return 1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "Sigmoid", a,
      [](float x) {
        return kernels::ActApply(kernels::FusedAct::kSigmoid, x, 0.0f);
      },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float alpha) {
  return UnaryOp(
      "LeakyRelu", a, [alpha](float x) { return x > 0.0f ? x : alpha * x; },
      [alpha](float x, float) { return x > 0.0f ? 1.0f : alpha; });
}

Tensor Softplus(const Tensor& a) {
  return UnaryOp(
      "Softplus", a,
      [](float x) {
        // log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
        return (x > 0.0f ? x : 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) {
        if (x >= 0.0f) {
          const float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        const float z = std::exp(x);
        return z / (1.0f + z);
      });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "Sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Sum(const Tensor& a) {
  TRACE_OP("Sum");
  const auto& av = a.value();
  float total = 0.0f;
  for (float v : av) total += v;
  auto an = a.node();
  auto result = MakeOp("Sum", Shape(), FloatBuffer(1, total), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      const float g = on->grad[0];
      for (float& gv : an->grad) gv += g;
    };
  }
  return result;
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.num_elements()));
}

Tensor SumRows(const Tensor& a) {
  TRACE_OP("SumRows");
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  const int64_t cols = a.shape().dim(1);
  const auto& av = a.value();
  FloatBuffer out(static_cast<size_t>(cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    kernels::Axpy(1.0f, av.data() + r * cols, out.data(), cols);
  }
  auto an = a.node();
  auto result = MakeOp("SumRows", Shape({cols}), std::move(out), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on, rows, cols]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      const auto& g = on->grad;
      for (int64_t r = 0; r < rows; ++r) {
        kernels::Axpy(1.0f, g.data(), an->grad.data() + r * cols, cols);
      }
    };
  }
  return result;
}

Tensor MeanRows(const Tensor& a) {
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  return Scale(SumRows(a), 1.0f / static_cast<float>(a.shape().dim(0)));
}

Tensor Dropout(const Tensor& a, float rate, Rng& rng) {
  TRACE_OP("Dropout");
  SCENEREC_CHECK(rate >= 0.0f && rate < 1.0f) << "rate" << rate;
  if (rate == 0.0f) return a;
  const auto& av = a.value();
  const float scale = 1.0f / (1.0f - rate);
  auto mask = std::make_shared<std::vector<float>>(av.size());
  FloatBuffer out = FloatBuffer::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) {
    const float keep = rng.NextBernoulli(rate) ? 0.0f : scale;
    (*mask)[i] = keep;
    out[i] = av[i] * keep;
  }
  auto an = a.node();
  auto result = MakeOp("Dropout", a.shape(), std::move(out), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on, mask]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      const auto& g = on->grad;
      for (size_t i = 0; i < g.size(); ++i) {
        an->grad[i] += g[i] * (*mask)[i];
      }
    };
  }
  return result;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TRACE_OP("MatMul");
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  SCENEREC_CHECK_EQ(b.shape().rank(), 2);
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  SCENEREC_CHECK_EQ(b.shape().dim(0), k);
  const int64_t n = b.shape().dim(1);
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(m * n));
  kernels::Gemm(av.data(), bv.data(), out.data(), m, k, n);
  auto an = a.node();
  auto bn = b.node();
  auto result =
      MakeOp("MatMul", Shape({m, n}), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on, m, k, n]() {
      const auto& g = on->grad;
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        // dA += G B^T
        kernels::GemmNTAccum(g.data(), bn->value.data(), an->grad.data(), m,
                             n, k);
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        // dB += A^T G
        kernels::GemmTNAccum(an->value.data(), g.data(), bn->grad.data(), m,
                             k, n);
      }
    };
  }
  return result;
}

namespace {

/// Shared forward/backward for MatVec, MatVecBatch, LinearAct and
/// LinearActRows: ys = act(W xs + bias) row by row, where `bias` may be
/// null (plain MatVec) and rows == 1 covers the vector case. All rows go
/// through one kernels::GemvMulti, bitwise a standalone Gemv per row, which
/// is what makes the batched entry points bitwise equal to their
/// per-entity loops.
Tensor LinearRowsImpl(const char* name, const Tensor& w, const Tensor& xs,
                      const Tensor* bias, kernels::FusedAct act,
                      float leaky_slope, int64_t rows, Shape out_shape) {
  trace::SpanScope op_span(name, "op", trace::Floor::kOp);
  const int64_t m = w.shape().dim(0);
  const int64_t n = w.shape().dim(1);
  const auto& wv = w.value();
  const auto& xv = xs.value();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(rows * m));
  kernels::GemvMulti(wv.data(), m, n, xv.data(), rows, out.data());
  if (bias != nullptr) {
    SCENEREC_CHECK_EQ(bias->shape().rank(), 1);
    SCENEREC_CHECK_EQ(bias->shape().dim(0), m);
    const auto& biasv = bias->value();
    for (int64_t r = 0; r < rows; ++r) {
      float* orow = out.data() + r * m;
      for (int64_t i = 0; i < m; ++i) {
        orow[i] = kernels::ActApply(act, orow[i] + biasv[i], leaky_slope);
      }
    }
  } else if (act != kernels::FusedAct::kNone) {
    for (int64_t r = 0; r < rows; ++r) {
      float* orow = out.data() + r * m;
      for (int64_t i = 0; i < m; ++i) {
        orow[i] = kernels::ActApply(act, orow[i], leaky_slope);
      }
    }
  }
  auto wn = w.node();
  auto xn = xs.node();
  auto bn = bias != nullptr ? bias->node() : Tensor::NodePtr();
  std::vector<Tensor> inputs = {w, xs};
  if (bias != nullptr) inputs.push_back(*bias);
  auto result = MakeOp(name, std::move(out_shape), std::move(out),
                       std::move(inputs), nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [wn, xn, bn, on, act, leaky_slope, rows, m, n]() {
      const auto& g = on->grad;
      const auto& y = on->value;
      // d(pre-activation) for all rows; activation derivatives are
      // recoverable from the outputs alone. Arena-backed within a step.
      FloatBuffer dpre =
          FloatBuffer::Uninitialized(static_cast<size_t>(rows * m));
      if (act == kernels::FusedAct::kNone) {
        std::memcpy(dpre.data(), g.data(), g.size() * sizeof(float));
      } else {
        for (size_t i = 0; i < g.size(); ++i) {
          dpre[i] = g[i] * kernels::ActGradFromY(act, y[i], leaky_slope);
        }
      }
      if (wn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(wn.get());
        wn->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          kernels::GerAccum(dpre.data() + r * m, xn->value.data() + r * n, m,
                            n, wn->grad.data());
        }
      }
      if (bn != nullptr && bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          kernels::Axpy(1.0f, dpre.data() + r * m, bn->grad.data(), m);
        }
      }
      if (xn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(xn.get());
        xn->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          kernels::GemvTAccum(wn->value.data(), m, n, dpre.data() + r * m,
                              xn->grad.data() + r * n);
        }
      }
    };
  }
  return result;
}

}  // namespace

Tensor MatVec(const Tensor& w, const Tensor& x) {
  SCENEREC_CHECK_EQ(w.shape().rank(), 2);
  SCENEREC_CHECK_EQ(x.shape().rank(), 1);
  SCENEREC_CHECK_EQ(x.shape().dim(0), w.shape().dim(1));
  return LinearRowsImpl("MatVec", w, x, nullptr, kernels::FusedAct::kNone,
                        0.0f, /*rows=*/1, Shape({w.shape().dim(0)}));
}

Tensor MatVecBatch(const Tensor& w, const Tensor& xs) {
  SCENEREC_CHECK_EQ(w.shape().rank(), 2);
  SCENEREC_CHECK_EQ(xs.shape().rank(), 2);
  SCENEREC_CHECK_EQ(xs.shape().dim(1), w.shape().dim(1));
  const int64_t rows = xs.shape().dim(0);
  return LinearRowsImpl("MatVecBatch", w, xs, nullptr,
                        kernels::FusedAct::kNone, 0.0f, rows,
                        Shape({rows, w.shape().dim(0)}));
}

Tensor LinearAct(const Tensor& w, const Tensor& x, const Tensor& bias,
                 kernels::FusedAct act, float leaky_slope) {
  SCENEREC_CHECK_EQ(w.shape().rank(), 2);
  SCENEREC_CHECK_EQ(x.shape().rank(), 1);
  SCENEREC_CHECK_EQ(x.shape().dim(0), w.shape().dim(1));
  return LinearRowsImpl("LinearAct", w, x, &bias, act, leaky_slope,
                        /*rows=*/1, Shape({w.shape().dim(0)}));
}

Tensor LinearActRows(const Tensor& w, const Tensor& xs, const Tensor& bias,
                     kernels::FusedAct act, float leaky_slope) {
  SCENEREC_CHECK_EQ(w.shape().rank(), 2);
  SCENEREC_CHECK_EQ(xs.shape().rank(), 2);
  SCENEREC_CHECK_EQ(xs.shape().dim(1), w.shape().dim(1));
  const int64_t rows = xs.shape().dim(0);
  return LinearRowsImpl("LinearActRows", w, xs, &bias, act, leaky_slope, rows,
                        Shape({rows, w.shape().dim(0)}));
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  TRACE_OP("Dot");
  SCENEREC_CHECK_EQ(a.shape().rank(), 1);
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  const auto& av = a.value();
  const auto& bv = b.value();
  const float acc =
      kernels::Dot(av.data(), bv.data(), static_cast<int64_t>(av.size()));
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("Dot", Shape(), FloatBuffer(1, acc), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on]() {
      const float g = on->grad[0];
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        kernels::Axpy(g, bn->value.data(), an->grad.data(),
                      static_cast<int64_t>(an->value.size()));
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        kernels::Axpy(g, an->value.data(), bn->grad.data(),
                      static_cast<int64_t>(bn->value.size()));
      }
    };
  }
  return result;
}

Tensor CosineSimilarity(const Tensor& a, const Tensor& b, float epsilon) {
  TRACE_OP("CosineSimilarity");
  SCENEREC_CHECK_EQ(a.shape().rank(), 1);
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  const auto& av = a.value();
  const auto& bv = b.value();
  const int64_t d = static_cast<int64_t>(av.size());
  const float s = kernels::Dot(av.data(), bv.data(), d);
  const float na2 = kernels::Dot(av.data(), av.data(), d) + epsilon;
  const float nb2 = kernels::Dot(bv.data(), bv.data(), d) + epsilon;
  const float denom = std::sqrt(na2) * std::sqrt(nb2);
  const float cos = s / denom;
  auto an = a.node();
  auto bn = b.node();
  auto result = MakeOp("CosineSimilarity", Shape(), FloatBuffer(1, cos),
                       {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on, na2, nb2, denom, cos]() {
      // c = s / (|a| |b|)  =>  dc/da_i = b_i / denom - c a_i / |a|^2
      // (|a|^2 includes the epsilon, matching the stabilized forward).
      const float g = on->grad[0];
      const size_t d = an->value.size();
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        for (size_t i = 0; i < d; ++i) {
          an->grad[i] +=
              g * (bn->value[i] / denom - cos * an->value[i] / na2);
        }
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        for (size_t i = 0; i < d; ++i) {
          bn->grad[i] +=
              g * (an->value[i] / denom - cos * bn->value[i] / nb2);
        }
      }
    };
  }
  return result;
}

Tensor CosineSimilarityUnfused(const Tensor& a, const Tensor& b,
                               float epsilon) {
  SCENEREC_CHECK_EQ(a.shape().rank(), 1);
  SCENEREC_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << "vs" << b.shape().ToString();
  // Composed from primitive ops so autodiff handles the quotient rule.
  Tensor norm_a = Sqrt(AddScalar(Dot(a, a), epsilon));
  Tensor norm_b = Sqrt(AddScalar(Dot(b, b), epsilon));
  return Div(Dot(a, b), Mul(norm_a, norm_b));
}

Tensor Concat(const std::vector<Tensor>& parts) {
  TRACE_OP("Concat");
  SCENEREC_CHECK(!parts.empty());
  int64_t total = 0;
  for (const Tensor& t : parts) {
    SCENEREC_CHECK_EQ(t.shape().rank(), 1);
    total += t.shape().dim(0);
  }
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(total));
  size_t offset = 0;
  for (const Tensor& t : parts) {
    const auto& v = t.value();
    std::memcpy(out.data() + offset, v.data(), v.size() * sizeof(float));
    offset += v.size();
  }
  auto result =
      MakeOp("Concat", Shape({total}), std::move(out), parts, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [on]() {
      const auto& g = on->grad;
      size_t offset = 0;
      for (const auto& input : on->inputs) {
        const size_t n = input->value.size();
        if (input->requires_grad) {
          auto lock = internal_tensor::LockGradIfSharedLeaf(input.get());
          input->EnsureGrad();
          kernels::Axpy(1.0f, g.data() + offset, input->grad.data(),
                        static_cast<int64_t>(n));
        }
        offset += n;
      }
    };
  }
  return result;
}

Tensor Stack(const std::vector<Tensor>& scalars) {
  TRACE_OP("Stack");
  SCENEREC_CHECK(!scalars.empty());
  FloatBuffer out = FloatBuffer::Uninitialized(scalars.size());
  for (size_t i = 0; i < scalars.size(); ++i) {
    SCENEREC_CHECK_EQ(scalars[i].num_elements(), 1);
    out[i] = scalars[i].value()[0];
  }
  auto result = MakeOp("Stack", Shape({static_cast<int64_t>(scalars.size())}),
                       std::move(out), scalars, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [on]() {
      const auto& g = on->grad;
      for (size_t i = 0; i < on->inputs.size(); ++i) {
        const auto& input = on->inputs[i];
        if (input->requires_grad) {
          auto lock = internal_tensor::LockGradIfSharedLeaf(input.get());
          input->EnsureGrad();
          input->grad[0] += g[i];
        }
      }
    };
  }
  return result;
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  TRACE_OP("StackRows");
  SCENEREC_CHECK(!rows.empty());
  const int64_t d = rows[0].shape().dim(0);
  FloatBuffer out =
      FloatBuffer::Uninitialized(rows.size() * static_cast<size_t>(d));
  for (size_t r = 0; r < rows.size(); ++r) {
    SCENEREC_CHECK_EQ(rows[r].shape().rank(), 1);
    SCENEREC_CHECK_EQ(rows[r].shape().dim(0), d);
    const auto& v = rows[r].value();
    std::memcpy(out.data() + r * static_cast<size_t>(d), v.data(),
                v.size() * sizeof(float));
  }
  auto result = MakeOp("StackRows", Shape({static_cast<int64_t>(rows.size()), d}),
                       std::move(out), rows, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [on, d]() {
      const auto& g = on->grad;
      for (size_t r = 0; r < on->inputs.size(); ++r) {
        const auto& input = on->inputs[r];
        if (!input->requires_grad) continue;
        auto lock = internal_tensor::LockGradIfSharedLeaf(input.get());
        input->EnsureGrad();
        kernels::Axpy(1.0f, g.data() + r * static_cast<size_t>(d),
                      input->grad.data(), d);
      }
    };
  }
  return result;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TRACE_OP("ConcatCols");
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  SCENEREC_CHECK_EQ(b.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  SCENEREC_CHECK_EQ(b.shape().dim(0), rows);
  const int64_t da = a.shape().dim(1);
  const int64_t db = b.shape().dim(1);
  const int64_t d = da + db;
  const auto& av = a.value();
  const auto& bv = b.value();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(rows * d));
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * d, av.data() + r * da,
                static_cast<size_t>(da) * sizeof(float));
    std::memcpy(out.data() + r * d + da, bv.data() + r * db,
                static_cast<size_t>(db) * sizeof(float));
  }
  auto an = a.node();
  auto bn = b.node();
  auto result =
      MakeOp("ConcatCols", Shape({rows, d}), std::move(out), {a, b}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, bn, on, rows, da, db, d]() {
      const auto& g = on->grad;
      if (an->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
        an->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          kernels::Axpy(1.0f, g.data() + r * d, an->grad.data() + r * da, da);
        }
      }
      if (bn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(bn.get());
        bn->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          kernels::Axpy(1.0f, g.data() + r * d + da,
                        bn->grad.data() + r * db, db);
        }
      }
    };
  }
  return result;
}

Tensor GatherRows(const Tensor& a, std::vector<int64_t> rows) {
  TRACE_OP("GatherRows");
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  SCENEREC_CHECK(!rows.empty());
  const int64_t m = a.shape().dim(0);
  const int64_t d = a.shape().dim(1);
  const auto& av = a.value();
  FloatBuffer out =
      FloatBuffer::Uninitialized(rows.size() * static_cast<size_t>(d));
  for (size_t r = 0; r < rows.size(); ++r) {
    SCENEREC_CHECK_GE(rows[r], 0);
    SCENEREC_CHECK_LT(rows[r], m);
    std::memcpy(out.data() + r * static_cast<size_t>(d),
                av.data() + rows[r] * d, static_cast<size_t>(d) * sizeof(float));
  }
  auto an = a.node();
  auto result =
      MakeOp("GatherRows", Shape({static_cast<int64_t>(rows.size()), d}),
             std::move(out), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on, rows = std::move(rows), d]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      const auto& g = on->grad;
      for (size_t r = 0; r < rows.size(); ++r) {
        kernels::Axpy(1.0f, g.data() + r * static_cast<size_t>(d),
                      an->grad.data() + rows[r] * d, d);
      }
    };
  }
  return result;
}

Tensor Row(const Tensor& a, int64_t row) {
  TRACE_OP("Row");
  SCENEREC_CHECK_EQ(a.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  const int64_t cols = a.shape().dim(1);
  SCENEREC_CHECK_GE(row, 0);
  SCENEREC_CHECK_LT(row, rows);
  const auto& av = a.value();
  FloatBuffer out = FloatBuffer::Uninitialized(static_cast<size_t>(cols));
  std::memcpy(out.data(), av.data() + row * cols,
              static_cast<size_t>(cols) * sizeof(float));
  auto an = a.node();
  auto result = MakeOp("Row", Shape({cols}), std::move(out), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on, row, cols]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(an.get());
      an->EnsureGrad();
      kernels::Axpy(1.0f, on->grad.data(), an->grad.data() + row * cols,
                    cols);
    };
  }
  return result;
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  SCENEREC_CHECK_EQ(a.num_elements(), shape.num_elements())
      << a.shape().ToString() << "vs" << shape.ToString();
  auto an = a.node();
  auto result = MakeOp("Reshape", shape, a.value(), {a}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [an, on]() {
      AccumulateGrad(an, on->grad.data(), on->grad.size());
    };
  }
  return result;
}

Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices) {
  TRACE_OP("Gather");
  SCENEREC_CHECK_EQ(table.shape().rank(), 2);
  SCENEREC_CHECK(!indices.empty());
  const int64_t vocab = table.shape().dim(0);
  const int64_t d = table.shape().dim(1);
  const auto& tv = table.value();
  FloatBuffer out =
      FloatBuffer::Uninitialized(indices.size() * static_cast<size_t>(d));
  for (size_t r = 0; r < indices.size(); ++r) {
    const int64_t idx = indices[r];
    SCENEREC_CHECK_GE(idx, 0);
    SCENEREC_CHECK_LT(idx, vocab);
    std::memcpy(out.data() + r * static_cast<size_t>(d), tv.data() + idx * d,
                static_cast<size_t>(d) * sizeof(float));
  }
  auto tn = table.node();
  auto result =
      MakeOp("Gather", Shape({static_cast<int64_t>(indices.size()), d}),
             std::move(out), {table}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [tn, on, indices, d]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(tn.get());
      tn->EnsureGrad();
      const auto& g = on->grad;
      for (size_t r = 0; r < indices.size(); ++r) {
        const int64_t idx = indices[r];
        kernels::Axpy(1.0f, g.data() + r * static_cast<size_t>(d),
                      tn->grad.data() + idx * d, d);
        tn->touched_rows.push_back(idx);
      }
    };
  }
  return result;
}

Tensor Softmax(const Tensor& logits) {
  TRACE_OP("Softmax");
  SCENEREC_CHECK_EQ(logits.shape().rank(), 1);
  const auto& lv = logits.value();
  float max_logit = lv[0];
  for (float v : lv) max_logit = std::max(max_logit, v);
  FloatBuffer out = FloatBuffer::Uninitialized(lv.size());
  float denom = 0.0f;
  for (size_t i = 0; i < lv.size(); ++i) {
    out[i] = std::exp(lv[i] - max_logit);
    denom += out[i];
  }
  for (float& v : out) v /= denom;
  auto ln = logits.node();
  auto result =
      MakeOp("Softmax", logits.shape(), std::move(out), {logits}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [ln, on]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(ln.get());
      ln->EnsureGrad();
      const auto& g = on->grad;
      const auto& y = on->value;
      const float dot =
          kernels::Dot(g.data(), y.data(), static_cast<int64_t>(g.size()));
      for (size_t i = 0; i < g.size(); ++i) {
        ln->grad[i] += y[i] * (g[i] - dot);
      }
    };
  }
  return result;
}

Tensor WeightedSumRows(const Tensor& rows, const Tensor& weights) {
  TRACE_OP("WeightedSumRows");
  SCENEREC_CHECK_EQ(rows.shape().rank(), 2);
  SCENEREC_CHECK_EQ(weights.shape().rank(), 1);
  const int64_t k = rows.shape().dim(0);
  const int64_t d = rows.shape().dim(1);
  SCENEREC_CHECK_EQ(weights.shape().dim(0), k);
  const auto& rv = rows.value();
  const auto& wv = weights.value();
  FloatBuffer out(static_cast<size_t>(d), 0.0f);
  for (int64_t r = 0; r < k; ++r) {
    const float w = wv[r];
    if (w == 0.0f) continue;
    kernels::Axpy(w, rv.data() + r * d, out.data(), d);
  }
  auto rn = rows.node();
  auto wn = weights.node();
  auto result = MakeOp("WeightedSumRows", Shape({d}), std::move(out),
                       {rows, weights}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [rn, wn, on, k, d]() {
      const auto& g = on->grad;
      if (rn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(rn.get());
        rn->EnsureGrad();
        for (int64_t r = 0; r < k; ++r) {
          const float w = wn->value[r];
          if (w == 0.0f) continue;
          kernels::Axpy(w, g.data(), rn->grad.data() + r * d, d);
        }
      }
      if (wn->requires_grad) {
        auto lock = internal_tensor::LockGradIfSharedLeaf(wn.get());
        wn->EnsureGrad();
        for (int64_t r = 0; r < k; ++r) {
          wn->grad[r] += kernels::Dot(rn->value.data() + r * d, g.data(), d);
        }
      }
    };
  }
  return result;
}

Tensor SpMM(const CsrGraph* adj,
            const std::shared_ptr<const std::vector<float>>& edge_weights,
            const Tensor& x) {
  TRACE_OP("SpMM");
  SCENEREC_CHECK(adj != nullptr);
  SCENEREC_CHECK_EQ(x.shape().rank(), 2);
  SCENEREC_CHECK_EQ(x.shape().dim(0), adj->num_dst());
  if (edge_weights != nullptr) {
    SCENEREC_CHECK_EQ(static_cast<int64_t>(edge_weights->size()),
                      adj->num_edges());
  }
  const int64_t rows = adj->num_src();
  const int64_t d = x.shape().dim(1);
  const auto& xv = x.value();
  FloatBuffer out(static_cast<size_t>(rows * d), 0.0f);
  {
    size_t edge_index = 0;
    for (int64_t s = 0; s < rows; ++s) {
      auto neighbors = adj->Neighbors(s);
      auto weights = adj->Weights(s);
      float* orow = out.data() + s * d;
      for (size_t j = 0; j < neighbors.size(); ++j, ++edge_index) {
        const float w =
            edge_weights ? (*edge_weights)[edge_index] : weights[j];
        if (w == 0.0f) continue;
        kernels::Axpy(w, xv.data() + neighbors[j] * d, orow, d);
      }
    }
  }
  auto xn = x.node();
  auto result =
      MakeOp("SpMM", Shape({rows, d}), std::move(out), {x}, nullptr);
  TensorNode* on = result.node().get();
  if (result.requires_grad()) {
    on->backward_fn = [adj, edge_weights, xn, on, rows, d]() {
      auto lock = internal_tensor::LockGradIfSharedLeaf(xn.get());
      xn->EnsureGrad();
      const auto& g = on->grad;
      size_t edge_index = 0;
      for (int64_t s = 0; s < rows; ++s) {
        auto neighbors = adj->Neighbors(s);
        auto weights = adj->Weights(s);
        const float* grow = g.data() + s * d;
        for (size_t j = 0; j < neighbors.size(); ++j, ++edge_index) {
          const float w =
              edge_weights ? (*edge_weights)[edge_index] : weights[j];
          if (w == 0.0f) continue;
          kernels::Axpy(w, grow, xn->grad.data() + neighbors[j] * d, d);
        }
      }
    };
  }
  return result;
}

Tensor BprPairLoss(const Tensor& positive_score,
                   const Tensor& negative_score) {
  SCENEREC_CHECK_EQ(positive_score.num_elements(), 1);
  SCENEREC_CHECK_EQ(negative_score.num_elements(), 1);
  // -ln sigmoid(pos - neg) == softplus(neg - pos), numerically stable.
  return Softplus(Sub(negative_score, positive_score));
}

}  // namespace scenerec
