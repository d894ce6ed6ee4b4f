#ifndef SCENEREC_NN_MLP_H_
#define SCENEREC_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"

namespace scenerec {

/// Multilayer perceptron: a stack of Linear layers. Hidden layers use
/// `hidden_activation`; the output layer uses `output_activation`.
/// This is the F(.) network of equations (13) and (14).
class Mlp : public Module {
 public:
  /// `dims` lists layer widths including input and output, e.g.
  /// {128, 64, 1} builds 128->64->1. Requires at least two entries.
  Mlp(const std::vector<int64_t>& dims, Activation hidden_activation,
      Activation output_activation, Rng& rng);

  Mlp(const Mlp&) = delete;
  Mlp& operator=(const Mlp&) = delete;
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// Applies the stack to a rank-1 input of length dims.front().
  Tensor Forward(const Tensor& x) const;

  /// Applies the stack to every row of xs [R, dims.front()] ->
  /// [R, dims.back()]. Row r is bitwise equal to Forward(Row(xs, r)).
  Tensor ForwardRows(const Tensor& xs) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  int64_t in_dim() const { return layers_.front().in_dim(); }
  int64_t out_dim() const { return layers_.back().out_dim(); }
  size_t num_layers() const { return layers_.size(); }
  const Linear& layer(size_t i) const { return layers_[i]; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace scenerec

#endif  // SCENEREC_NN_MLP_H_
