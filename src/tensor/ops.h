#ifndef SCENEREC_TENSOR_OPS_H_
#define SCENEREC_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace scenerec {

// Differentiable operations. Each function computes the forward value
// immediately (eager, like PyTorch) and records a backward closure on the
// result so Backward(loss) can propagate gradients. Shapes are validated
// with SCENEREC_CHECK; mismatches are programmer errors.

// -- Elementwise binary ------------------------------------------------------

/// a + b. Shapes must match, except that a rank-1 `b` of length n may be
/// broadcast-added to every row of a rank-2 `a` of shape [m, n] (bias add).
Tensor Add(const Tensor& a, const Tensor& b);

/// a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise product (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// Elementwise quotient (same shape). Caller ensures b != 0.
Tensor Div(const Tensor& a, const Tensor& b);

// -- Elementwise unary -------------------------------------------------------

/// s * a for a compile-time-known scalar s (no gradient to s).
Tensor Scale(const Tensor& a, float s);

/// a + c elementwise for a constant c.
Tensor AddScalar(const Tensor& a, float c);

/// Logistic sigmoid 1 / (1 + exp(-x)).
Tensor Sigmoid(const Tensor& a);

/// Hyperbolic tangent.
Tensor Tanh(const Tensor& a);

/// max(x, 0).
Tensor Relu(const Tensor& a);

/// x if x > 0 else alpha * x.
Tensor LeakyRelu(const Tensor& a, float alpha = kernels::kLeakySlope);

/// Numerically stable log(1 + exp(x)). Note -log(sigmoid(z)) == Softplus(-z),
/// which is how the BPR loss is computed.
Tensor Softplus(const Tensor& a);

/// Elementwise square root. Caller ensures non-negativity.
Tensor Sqrt(const Tensor& a);

// -- Reductions --------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor Sum(const Tensor& a);

/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& a);

/// Sum over rows of [m, d] -> [d]. The basic neighbor-aggregation primitive.
Tensor SumRows(const Tensor& a);

/// Mean over rows of [m, d] -> [d].
Tensor MeanRows(const Tensor& a);

/// Inverted dropout: with probability `rate` an element is zeroed, survivors
/// are scaled by 1/(1-rate) so expectations match at inference (where the op
/// should simply not be applied). The mask is sampled from `rng` at call
/// time and baked into the backward pass. rate must be in [0, 1).
Tensor Dropout(const Tensor& a, float rate, Rng& rng);

// -- Linear algebra ----------------------------------------------------------

/// Matrix product [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Matrix-vector product [m, n] x [n] -> [m]. Equations (1), (2), (7), (12)
/// of the paper are MatVec(W, x) + b.
Tensor MatVec(const Tensor& w, const Tensor& x);

/// Row-batched MatVec: each row of xs [R, n] is multiplied by w [m, n],
/// giving [R, m]. Row r is computed by the exact same kernel as
/// MatVec(w, Row(xs, r)) — bitwise equal — so per-entity model code can be
/// lifted into one batched call without changing results.
Tensor MatVecBatch(const Tensor& w, const Tensor& xs);

/// Fused act(W x + bias) in a single graph node: the MatVec + bias-add +
/// activation chain of equations (1), (2), (7), (12) without two
/// intermediate nodes. `bias` must be rank-1 of length m.
Tensor LinearAct(const Tensor& w, const Tensor& x, const Tensor& bias,
                 kernels::FusedAct act,
                 float leaky_slope = kernels::kLeakySlope);

/// Row-batched LinearAct: xs [R, n] -> [R, m] where row r equals
/// LinearAct(w, Row(xs, r), bias, act) bitwise (same per-row kernel).
Tensor LinearActRows(const Tensor& w, const Tensor& xs, const Tensor& bias,
                     kernels::FusedAct act,
                     float leaky_slope = kernels::kLeakySlope);

/// Dot product of two rank-1 tensors -> scalar.
Tensor Dot(const Tensor& a, const Tensor& b);

/// Cosine similarity of two rank-1 tensors -> scalar, the attention function
/// f(.,.) in equations (5) and (10). Stabilized with a small epsilon so
/// zero vectors yield 0 with finite gradients. Fused: forward and the full
/// quotient-rule backward live in one graph node (the composed form built
/// five nodes per neighbor edge).
Tensor CosineSimilarity(const Tensor& a, const Tensor& b,
                        float epsilon = 1e-8f);

/// The pre-fusion composition (Dot / norms / Div as separate nodes). Kept as
/// a reference for the equivalence tests and the fused-vs-unfused benchmark.
Tensor CosineSimilarityUnfused(const Tensor& a, const Tensor& b,
                               float epsilon = 1e-8f);

// -- Shape manipulation ------------------------------------------------------

/// Concatenation of rank-1 tensors -> one rank-1 tensor. The "||" operator
/// in equations (7), (12), (13), (14).
Tensor Concat(const std::vector<Tensor>& parts);

/// Stacks k scalars into a rank-1 tensor of length k (attention logits).
Tensor Stack(const std::vector<Tensor>& scalars);

/// Stacks k rank-1 tensors of length d into a [k, d] matrix.
Tensor StackRows(const std::vector<Tensor>& rows);

/// Column-concatenation of [R, d1] and [R, d2] -> [R, d1 + d2]: row r is
/// Concat({Row(a, r), Row(b, r)}). Feeds batched MLPs whose per-row input is
/// a concatenation (equations (13), (14)).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// out[r, :] = a[rows[r], :] for a [m, d] tensor -> [R, d]. Unlike Gather
/// this targets intermediate tensors (e.g. expanding one user row per
/// scored pair) and does not record touched_rows on the input.
Tensor GatherRows(const Tensor& a, std::vector<int64_t> rows);

/// Extracts row `row` of a [m, d] tensor as a rank-1 tensor (view copy).
Tensor Row(const Tensor& a, int64_t row);

/// Reinterprets `a` with a new shape holding the same number of elements.
Tensor Reshape(const Tensor& a, const Shape& shape);

// -- Gather / attention ------------------------------------------------------

/// Gathers rows of a [V, d] parameter table -> [k, d]. Backward scatters into
/// the table's gradient and records the touched rows for lazy optimizers.
/// Duplicate indices accumulate. This is the embedding-lookup primitive.
Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices);

/// Softmax over a rank-1 tensor, equation (6)/(11).
Tensor Softmax(const Tensor& logits);

/// Attention aggregation: sum_r weights[r] * rows[r, :] for rows [k, d] and
/// weights [k] -> [d]. Equations (4) and (9).
Tensor WeightedSumRows(const Tensor& rows, const Tensor& weights);

/// Sparse-dense product for full-graph message passing (NGCF, KGAT):
///   out[s, :] = sum over the j-th neighbor t of s of w_j * x[t, :]
/// where w_j is edge_weights[offset(s) + j] if `edge_weights` is non-null
/// (one entry per CSR edge, e.g. symmetric-normalized coefficients or
/// attention scores), else the CSR's stored weights.
///
/// The adjacency is a constant of the op: gradients flow into `x` only
/// (dX = A^T dOut). LIFETIME: `adj` (and `edge_weights` if given) must
/// outlive any Backward() pass through the result; the op stores pointers,
/// not copies. Model code satisfies this because graphs outlive training.
Tensor SpMM(const CsrGraph* adj,
            const std::shared_ptr<const std::vector<float>>& edge_weights,
            const Tensor& x);

// -- Losses ------------------------------------------------------------------

/// BPR pairwise loss for one (positive, negative) score pair:
/// -ln sigmoid(pos - neg), equation (15) without the L2 term (regularization
/// is applied as weight decay by the optimizer). Both inputs are scalars.
Tensor BprPairLoss(const Tensor& positive_score, const Tensor& negative_score);

}  // namespace scenerec

#endif  // SCENEREC_TENSOR_OPS_H_
