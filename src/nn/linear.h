#ifndef SCENEREC_NN_LINEAR_H_
#define SCENEREC_NN_LINEAR_H_

#include <cstdint>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace scenerec {

/// Fully connected layer: y = activation(W x + b), with W of shape
/// [out_dim, in_dim] initialized Xavier-uniform and b zero-initialized.
/// Implements the sigma(W . x + b) blocks of equations (1), (2), (7), (12).
class Linear : public Module {
 public:
  /// Creates the layer; parameters are drawn from `rng`.
  Linear(int64_t in_dim, int64_t out_dim, Activation activation, Rng& rng);

  Linear(const Linear&) = delete;
  Linear& operator=(const Linear&) = delete;
  Linear(Linear&&) = default;
  Linear& operator=(Linear&&) = default;

  /// Applies the layer to a rank-1 input of length in_dim -> [out_dim].
  /// A single fused LinearAct graph node (no MatVec/Add/activation chain).
  Tensor Forward(const Tensor& x) const;

  /// Applies the layer to every row of xs [R, in_dim] -> [R, out_dim] in one
  /// fused node. Row r is bitwise equal to Forward(Row(xs, r)), so callers
  /// may batch per-entity forwards freely.
  Tensor ForwardRows(const Tensor& xs) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  Activation activation() const { return activation_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Activation activation_;
  Tensor weight_;
  Tensor bias_;
};

}  // namespace scenerec

#endif  // SCENEREC_NN_LINEAR_H_
