#include "tensor/tensor.h"

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/trace.h"

namespace scenerec {

using internal_tensor::TensorNode;

namespace internal_tensor {

namespace {
/// Striped locks for concurrent leaf-gradient accumulation. Collisions only
/// cost extra serialization, never correctness; 64 stripes keep the
/// collision rate negligible for models with tens of parameters.
constexpr size_t kGradLockStripes = 64;
std::mutex g_grad_locks[kGradLockStripes];
}  // namespace

std::unique_lock<std::mutex> LockGradIfSharedLeaf(TensorNode* node) {
  if (!node->inputs.empty()) return {};  // shard-private intermediate
  const size_t stripe =
      (reinterpret_cast<uintptr_t>(node) >> 6) % kGradLockStripes;
  return std::unique_lock<std::mutex>(g_grad_locks[stripe]);
}

void TensorNode::EnsureGrad() {
  if (!grad.empty()) return;
  SCENEREC_CHECK(!value.borrowed())
      << "gradient requested for a read-only mapped parameter; "
         "snapshot-bound models serve inference only";
  if (inputs.empty()) {
    // Leaf (parameter): its gradient outlives the step's arena — the
    // optimizer reads it after the trainer's ArenaScope ends and the buffer
    // is reused across steps — so force it onto the heap.
    ArenaPauseGuard heap_only;
    grad.assign(value.size(), 0.0f);
  } else {
    grad.assign(value.size(), 0.0f);
  }
}

}  // namespace internal_tensor

namespace {

Tensor MakeLeaf(const Shape& shape, FloatBuffer values, bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->shape = shape;
  node->value = std::move(values);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

thread_local bool t_deferred_init = false;

/// Under a DeferredInitGuard the random factories skip their RNG fill: the
/// caller is about to rebind the tensor to snapshot storage, so only the
/// shape and requires_grad flag matter.
Tensor MaybeDeferredLeaf(const Shape& shape, bool requires_grad) {
  return MakeLeaf(
      shape,
      FloatBuffer::Uninitialized(static_cast<size_t>(shape.num_elements())),
      requires_grad);
}

}  // namespace

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return MakeLeaf(
      shape, FloatBuffer(static_cast<size_t>(shape.num_elements()), 0.0f),
      requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float fill, bool requires_grad) {
  return MakeLeaf(
      shape, FloatBuffer(static_cast<size_t>(shape.num_elements()), fill),
      requires_grad);
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return MakeLeaf(Shape(), FloatBuffer(1, value), requires_grad);
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  SCENEREC_CHECK_EQ(static_cast<int64_t>(values.size()), shape.num_elements())
      << "for shape" << shape.ToString();
  return MakeLeaf(shape, std::move(values), requires_grad);
}

Tensor Tensor::RandomUniform(const Shape& shape, float lo, float hi, Rng& rng,
                             bool requires_grad) {
  if (t_deferred_init) return MaybeDeferredLeaf(shape, requires_grad);
  std::vector<float> values(static_cast<size_t>(shape.num_elements()));
  for (float& v : values) v = rng.NextFloat(lo, hi);
  return MakeLeaf(shape, std::move(values), requires_grad);
}

Tensor Tensor::RandomNormal(const Shape& shape, float stddev, Rng& rng,
                            bool requires_grad) {
  if (t_deferred_init) return MaybeDeferredLeaf(shape, requires_grad);
  std::vector<float> values(static_cast<size_t>(shape.num_elements()));
  for (float& v : values) {
    v = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return MakeLeaf(shape, std::move(values), requires_grad);
}

Tensor Tensor::XavierUniform(int64_t fan_out, int64_t fan_in, Rng& rng,
                             bool requires_grad) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform(Shape({fan_out, fan_in}), -bound, bound, rng,
                       requires_grad);
}

const Shape& Tensor::shape() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->shape;
}

bool Tensor::requires_grad() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->requires_grad;
}

const FloatBuffer& Tensor::value() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->value;
}

FloatBuffer& Tensor::mutable_value() {
  SCENEREC_CHECK(node_ != nullptr);
  node_->writes.fetch_add(1, std::memory_order_relaxed);
  return node_->value;
}

uint64_t Tensor::write_count() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->writes.load(std::memory_order_relaxed);
}

void Tensor::BindExternal(FloatBuffer buffer) {
  SCENEREC_CHECK(node_ != nullptr);
  SCENEREC_CHECK(node_->inputs.empty())
      << "BindExternal on a non-leaf tensor (op result)";
  SCENEREC_CHECK_EQ(static_cast<int64_t>(buffer.size()), num_elements());
  node_->writes.fetch_add(1, std::memory_order_relaxed);
  node_->value = std::move(buffer);
  node_->requires_grad = false;
  node_->grad = FloatBuffer();
  node_->touched_rows.clear();
}

const FloatBuffer& Tensor::grad() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->grad;
}

float Tensor::scalar() const {
  SCENEREC_CHECK_EQ(num_elements(), 1);
  return value()[0];
}

float Tensor::at(int64_t i) const {
  SCENEREC_CHECK_GE(i, 0);
  SCENEREC_CHECK_LT(i, num_elements());
  return value()[static_cast<size_t>(i)];
}

float Tensor::at(int64_t row, int64_t col) const {
  SCENEREC_CHECK_EQ(shape().rank(), 2);
  const int64_t cols = shape().dim(1);
  SCENEREC_CHECK_GE(row, 0);
  SCENEREC_CHECK_LT(row, shape().dim(0));
  SCENEREC_CHECK_GE(col, 0);
  SCENEREC_CHECK_LT(col, cols);
  return value()[static_cast<size_t>(row * cols + col)];
}

void Tensor::ZeroGrad() {
  SCENEREC_CHECK(node_ != nullptr);
  if (node_->grad.empty()) {
    node_->touched_rows.clear();
    return;
  }
  if (!node_->touched_rows.empty() && node_->shape.rank() == 2) {
    // Sparse parameter: clear only the rows written since last ZeroGrad.
    const int64_t cols = node_->shape.dim(1);
    for (int64_t row : node_->touched_rows) {
      float* g = node_->grad.data() + row * cols;
      for (int64_t c = 0; c < cols; ++c) g[c] = 0.0f;
    }
    node_->touched_rows.clear();
    return;
  }
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  node_->touched_rows.clear();
}

const std::vector<int64_t>& Tensor::touched_rows() const {
  SCENEREC_CHECK(node_ != nullptr);
  return node_->touched_rows;
}

std::string Tensor::DebugString() const {
  if (!defined()) return "Tensor(null)";
  std::ostringstream out;
  out << "Tensor" << shape().ToString() << " [";
  const auto& v = value();
  const size_t show = std::min<size_t>(v.size(), 8);
  for (size_t i = 0; i < show; ++i) {
    if (i > 0) out << ", ";
    out << v[i];
  }
  if (v.size() > show) out << ", ...";
  out << "]";
  return out.str();
}

namespace {
thread_local bool t_no_grad = false;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(t_no_grad) { t_no_grad = true; }
NoGradGuard::~NoGradGuard() { t_no_grad = previous_; }
bool NoGradGuard::enabled() { return t_no_grad; }

DeferredInitGuard::DeferredInitGuard() : previous_(t_deferred_init) {
  t_deferred_init = true;
}
DeferredInitGuard::~DeferredInitGuard() { t_deferred_init = previous_; }
bool DeferredInitGuard::enabled() { return t_deferred_init; }

void Backward(const Tensor& loss) {
  SCENEREC_CHECK(loss.defined());
  SCENEREC_CHECK_EQ(loss.num_elements(), 1) << "Backward needs a scalar loss";
  SCENEREC_CHECK(loss.requires_grad())
      << "loss does not depend on any trainable tensor";

  // Iterative post-order DFS to get a topological order of the subgraph that
  // requires gradients.
  std::vector<TensorNode*> topo;
  std::unordered_set<TensorNode*> visited;
  struct Frame {
    TensorNode* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  stack.push_back({loss.node().get(), 0});
  visited.insert(loss.node().get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input < frame.node->inputs.size()) {
      TensorNode* input = frame.node->inputs[frame.next_input++].get();
      if (input->requires_grad && visited.insert(input).second) {
        stack.push_back({input, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Seed d(loss)/d(loss) = 1 and run backward closures in reverse topo order.
  SCENEREC_TRACE_SPAN_F("autograd/backward", "autograd", trace::Floor::kNone,
                        "nodes=%zu", topo.size());
  const bool tracing = trace::Enabled();
  TensorNode* root = loss.node().get();
  root->EnsureGrad();
  root->grad[0] += 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorNode* node = *it;
    if (node->backward_fn == nullptr) continue;
    if (tracing) {
      trace::SpanScope op_span(node->op_name != nullptr ? node->op_name : "op",
                               "bwd", trace::Floor::kOp);
      node->backward_fn();
    } else {
      node->backward_fn();
    }
  }
}

}  // namespace scenerec
