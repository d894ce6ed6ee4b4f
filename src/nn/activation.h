#ifndef SCENEREC_NN_ACTIVATION_H_
#define SCENEREC_NN_ACTIVATION_H_

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace scenerec {

/// Nonlinearity selector used by Linear and Mlp. The paper's sigma is a
/// generic nonlinear activation; we default to LeakyReLU which trains
/// stably on all models here, and keep the rest selectable for ablations.
enum class Activation {
  kNone,
  kSigmoid,
  kTanh,
  kRelu,
  kLeakyRelu,
};

/// Applies `activation` to `x`.
inline Tensor ApplyActivation(Activation activation, const Tensor& x) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kSigmoid:
      return Sigmoid(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kRelu:
      return Relu(x);
    case Activation::kLeakyRelu:
      return LeakyRelu(x);
  }
  return x;
}

/// The kernel-layer twin of `activation` (tensor/ cannot depend on nn/).
inline kernels::FusedAct ToFusedAct(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return kernels::FusedAct::kNone;
    case Activation::kSigmoid:
      return kernels::FusedAct::kSigmoid;
    case Activation::kTanh:
      return kernels::FusedAct::kTanh;
    case Activation::kRelu:
      return kernels::FusedAct::kRelu;
    case Activation::kLeakyRelu:
      return kernels::FusedAct::kLeakyRelu;
  }
  return kernels::FusedAct::kNone;
}

/// Human-readable activation name for logs and configs.
inline const char* ActivationName(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return "none";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kLeakyRelu:
      return "leaky_relu";
  }
  return "?";
}

}  // namespace scenerec

#endif  // SCENEREC_NN_ACTIVATION_H_
