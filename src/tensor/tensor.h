#ifndef SCENEREC_TENSOR_TENSOR_H_
#define SCENEREC_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/arena.h"
#include "tensor/shape.h"

namespace scenerec {

namespace internal_tensor {

/// Reference-counted node in the dynamic computation graph. Holds the forward
/// value, the (lazily allocated) gradient buffer, and — for non-leaf nodes
/// created by a differentiable op — a backward closure plus edges to inputs.
///
/// Users never touch TensorNode directly; the Tensor handle below wraps it.
struct TensorNode {
  Shape shape;

  /// Forward value. Arena-backed for nodes created inside a training step's
  /// ArenaScope, heap-backed otherwise (parameters, eval passes, tests).
  FloatBuffer value;

  /// Gradient of the final loss w.r.t. this node. Same length as `value`
  /// once allocated; empty until first accumulation (see EnsureGrad).
  /// Leaf gradients are always heap-backed — see EnsureGrad.
  FloatBuffer grad;

  /// True if gradients should flow into (or through) this node.
  bool requires_grad = false;

  /// Inputs of the op that produced this node (empty for leaves). Keeps the
  /// upstream graph alive and defines the topological order for Backward.
  std::vector<std::shared_ptr<TensorNode>> inputs;

  /// Propagates `grad` of this node into its inputs. Null for leaves.
  std::function<void()> backward_fn;

  /// Static name of the op that produced this node ("MatMul", "Sigmoid",
  /// ...); null for leaves. Used by tracing to attribute backward execution
  /// per op type (the forward side is attributed by the op's own span).
  const char* op_name = nullptr;

  /// Number of times the value was handed out for writing or rebound
  /// (Tensor::mutable_value, Tensor::BindExternal). It only grows, so a
  /// derived table stamped with it is current exactly while it is unchanged
  /// (Module::ParameterVersion). Relaxed: it orders no data, since values
  /// are never written concurrently with the eval reads it stamps.
  std::atomic<uint64_t> writes{0};

  /// For sparse parameters (embedding tables): rows whose gradient may be
  /// non-zero since the last ZeroGrad. Lets optimizers do lazy row updates
  /// instead of scanning the full table.
  std::vector<int64_t> touched_rows;

  /// Allocates (zero-filled) `grad` if not yet present. For leaves (no
  /// inputs, i.e. parameters) the buffer is forced onto the heap even inside
  /// an ArenaScope, because the optimizer consumes it after the step's arena
  /// scope ends and it persists across steps.
  void EnsureGrad();
};

/// Serializes gradient accumulation into SHARED leaf parameters during
/// concurrent Backward passes. The sharding model (docs/parallelism.md)
/// guarantees that intermediate nodes belong to exactly one shard's graph,
/// so only leaves — nodes with no inputs, i.e. the model parameters every
/// shard reads — can be written by two Backward calls at once. Returns a
/// held lock for such a leaf and an empty (no-op) lock for intermediates.
///
/// Locks are striped by node address; ops must never hold two at once
/// (accumulate into one input, release, then lock the next).
std::unique_lock<std::mutex> LockGradIfSharedLeaf(TensorNode* node);

}  // namespace internal_tensor

/// A dense float tensor participating in reverse-mode automatic
/// differentiation. Tensor is a cheap shared handle: copies alias the same
/// storage, like torch.Tensor. Ops (see tensor/ops.h) build a dynamic graph;
/// Backward(loss) fills `grad()` on every reachable tensor that requires
/// gradients.
///
/// Typical lifecycle for a parameter:
///   Tensor w = Tensor::RandomUniform({64, 64}, -0.1f, 0.1f, rng,
///                                    /*requires_grad=*/true);
///   ... forward pass builds ops on w ...
///   Backward(loss);
///   optimizer.Step();   // consumes w.grad()
///   w.ZeroGrad();
class Tensor {
 public:
  /// Null handle; most APIs require a non-null tensor.
  Tensor() = default;

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  // -- Factories ------------------------------------------------------------

  /// All-zero tensor.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);

  /// Tensor filled with `fill`.
  static Tensor Full(const Shape& shape, float fill,
                     bool requires_grad = false);

  /// Scalar (rank-0) tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  /// Tensor initialized from `values` (row-major); size must match shape.
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);

  /// I.i.d. uniform values in [lo, hi).
  static Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng& rng,
                              bool requires_grad = false);

  /// I.i.d. normal values with the given stddev.
  static Tensor RandomNormal(const Shape& shape, float stddev, Rng& rng,
                             bool requires_grad = false);

  /// Xavier/Glorot uniform initialization for a [fan_out, fan_in] weight
  /// matrix: U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))).
  static Tensor XavierUniform(int64_t fan_out, int64_t fan_in, Rng& rng,
                              bool requires_grad = true);

  // -- Accessors ------------------------------------------------------------

  bool defined() const { return node_ != nullptr; }
  const Shape& shape() const;
  int64_t num_elements() const { return shape().num_elements(); }
  bool requires_grad() const;

  /// Forward value, row-major. FloatBuffer converts to std::vector<float>
  /// when a heap copy is wanted (snapshots). mutable_value() counts as a
  /// write (write_count) whether or not the caller then changes a value, so
  /// take it immediately before writing.
  const FloatBuffer& value() const;
  FloatBuffer& mutable_value();

  /// How many times mutable_value() or BindExternal() was called on this
  /// tensor. Monotonic; reading the value never moves it.
  uint64_t write_count() const;

  /// True if the value views external read-only memory (a bound snapshot
  /// page). Borrowed tensors cannot be written or grown gradients.
  bool borrowed() const { return value().borrowed(); }

  /// Rebinds this LEAF tensor's storage to an external read-only buffer of
  /// the same element count (typically a borrowed view of an mmap'd
  /// snapshot page — see nn/snapshot.h). The tensor keeps its node
  /// identity, so existing handles observe the new storage, but becomes a
  /// pure inference-time view: requires_grad is dropped and any gradient
  /// buffer / touched-row bookkeeping is discarded.
  void BindExternal(FloatBuffer buffer);

  /// Gradient buffer; empty if never written. Valid after Backward().
  const FloatBuffer& grad() const;

  /// Element accessors for scalars/vectors/matrices.
  float scalar() const;
  float at(int64_t i) const;
  float at(int64_t row, int64_t col) const;

  /// Clears accumulated gradients (and the touched-rows list). For sparse
  /// parameters only touched rows are cleared, which keeps the cost
  /// proportional to the work done since the last call.
  void ZeroGrad();

  /// Rows recorded as touched by sparse gathers since the last ZeroGrad.
  /// May contain duplicates.
  const std::vector<int64_t>& touched_rows() const;

  std::string DebugString() const;

  // -- Internal (used by ops and optimizers) --------------------------------

  using NodePtr = std::shared_ptr<internal_tensor::TensorNode>;
  const NodePtr& node() const { return node_; }
  explicit Tensor(NodePtr node) : node_(std::move(node)) {}

 private:
  NodePtr node_;
};

/// Runs reverse-mode autodiff from `loss` (must be scalar, requires_grad).
/// Accumulates into grad() of every reachable tensor, leaves included, so
/// repeated Backward calls without ZeroGrad sum gradients.
///
/// Thread safety: Backward may run concurrently on different threads
/// provided the loss graphs share no intermediate nodes (each thread built
/// its own forward pass). Shared LEAF parameters are fine — accumulation
/// into them is serialized per node by LockGradIfSharedLeaf — and the
/// result equals the serial sum of shard gradients up to float summation
/// order. Two Backward calls over graphs that share an intermediate node
/// are NOT safe (and would double-count that node's subgraph even
/// serially).
void Backward(const Tensor& loss);

/// RAII scope that disables graph construction: ops executed inside compute
/// forward values only (no backward closures, no input edges), which makes
/// evaluation passes cheaper and guarantees they cannot leak autograd state.
/// Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True while any NoGradGuard is alive on this thread.
  static bool enabled();

 private:
  bool previous_;
};

/// RAII scope that makes the random parameter factories (RandomUniform,
/// RandomNormal, XavierUniform) return uninitialized storage instead of
/// drawing from the RNG. Used by construct-from-snapshot (models/factory.h):
/// every parameter built inside the scope is immediately rebound to an
/// mmap'd snapshot page, so filling it first would be pure waste — for
/// large embedding tables, the dominant cost of opening a model. Nestable.
class DeferredInitGuard {
 public:
  DeferredInitGuard();
  ~DeferredInitGuard();

  DeferredInitGuard(const DeferredInitGuard&) = delete;
  DeferredInitGuard& operator=(const DeferredInitGuard&) = delete;

  /// True while any DeferredInitGuard is alive on this thread.
  static bool enabled();

 private:
  bool previous_;
};

}  // namespace scenerec

#endif  // SCENEREC_TENSOR_TENSOR_H_
