#ifndef SCENEREC_NN_OPTIMIZER_H_
#define SCENEREC_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace scenerec {

/// Optimizer hyper-parameters. `weight_decay` implements the paper's L2
/// regularization term lambda * ||Theta||^2 (the constant factor 2 from the
/// derivative is absorbed into the coefficient, matching common
/// implementations). `clip_norm` > 0 enables global gradient-norm clipping.
struct OptimizerOptions {
  float learning_rate = 1e-3f;
  float weight_decay = 0.0f;
  float clip_norm = 0.0f;
};

/// RMSProp (Goodfellow et al. 2016), the optimizer of the paper's
/// experiments (Section 5.3). Per element, with `scale` the clipping factor:
///   g = grad * scale + weight_decay * value
///   cache = kDecayRate * cache + (1 - kDecayRate) * g * g
///   value -= learning_rate * g / (sqrt(cache) + kEpsilon)
/// A rank-2 parameter with Tensor::touched_rows() (an embedding table)
/// updates lazily: only its touched rows, each once in ascending order, and
/// the cache of the other rows does not decay. Every other parameter
/// updates densely, and a parameter without a gradient is skipped. A
/// parameter's cache is allocated on its first update.
class RmsPropOptimizer {
 public:
  static constexpr float kDecayRate = 0.9f;
  static constexpr float kEpsilon = 1e-8f;

  RmsPropOptimizer(std::vector<Tensor> params, const OptimizerOptions& options);

  RmsPropOptimizer(const RmsPropOptimizer&) = delete;
  RmsPropOptimizer& operator=(const RmsPropOptimizer&) = delete;

  /// Applies one update using the gradients accumulated since the last
  /// ZeroGrad.
  void Step();

  /// Clears gradients on all managed parameters.
  void ZeroGrad();

 private:
  std::vector<Tensor> params_;
  const OptimizerOptions options_;
  /// Per parameter: the squared-gradient cache, empty until first updated.
  std::vector<std::vector<float>> cache_;
  /// Per parameter: this step's touched rows, sorted and deduplicated;
  /// empty for a dense update.
  std::vector<std::vector<int64_t>> rows_;
};

}  // namespace scenerec

#endif  // SCENEREC_NN_OPTIMIZER_H_
