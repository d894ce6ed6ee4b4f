#ifndef SCENEREC_NN_MODULE_H_
#define SCENEREC_NN_MODULE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace scenerec {

/// Base class for anything that owns trainable parameters (layers, models).
/// Subclasses expose their parameter tensors through CollectParameters so
/// optimizers and regularizers can reach them uniformly.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends every trainable parameter tensor (handles, not copies) to
  /// `out`. Composite modules forward to their children.
  virtual void CollectParameters(std::vector<Tensor>* out) const = 0;

  /// Convenience: all parameters as a fresh vector.
  std::vector<Tensor> Parameters() const {
    std::vector<Tensor> params;
    CollectParameters(&params);
    return params;
  }

  /// Clears gradient buffers on every parameter.
  void ZeroGrad() {
    for (Tensor& t : Parameters()) t.ZeroGrad();
  }

  /// Sum of every parameter's write_count(). Each count only grows, so the
  /// sum is unchanged exactly when no parameter was written (optimizer
  /// step, checkpoint load, snapshot bind, ...) in between: tables derived
  /// from the parameters and stamped with this value are still current.
  uint64_t ParameterVersion() const {
    uint64_t version = 0;
    for (const Tensor& t : Parameters()) version += t.write_count();
    return version;
  }

  /// Total number of trainable scalars.
  int64_t NumParameters() const {
    int64_t n = 0;
    for (const Tensor& t : Parameters()) n += t.num_elements();
    return n;
  }
};

}  // namespace scenerec

#endif  // SCENEREC_NN_MODULE_H_
