#ifndef SCENEREC_TESTS_TEST_UTIL_H_
#define SCENEREC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace scenerec {
namespace testing {

/// Verifies autograd gradients of `forward` against central finite
/// differences for every element of every tensor in `params`, via the
/// library's own CheckGradients (tensor/grad_check.h).
///
/// `forward` must rebuild the computation graph from the *current* values of
/// the parameter tensors and return a scalar loss. Parameters must have
/// requires_grad set.
inline void ExpectGradientsClose(const std::function<Tensor()>& forward,
                                 std::vector<Tensor> params, float eps = 2e-3f,
                                 float rtol = 4e-2f, float atol = 2e-3f) {
  auto report =
      CheckGradients(forward, std::move(params), eps, rtol, atol);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->ToString();
}

/// EXPECT_NEAR over all elements of two float vectors.
inline void ExpectVectorNear(const std::vector<float>& got,
                             const std::vector<float>& want,
                             float tol = 1e-5f) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

/// Wraps a per-pair score function as the BlockScoreFn every evaluation
/// and Top-N entry point takes: out[r] = score(user, items[r]).
inline BlockScoreFn PairScorer(std::function<float(int64_t, int64_t)> score) {
  return [score = std::move(score)](int64_t user,
                                    std::span<const int64_t> items,
                                    std::span<float> out) {
    for (size_t r = 0; r < items.size(); ++r) out[r] = score(user, items[r]);
  };
}

}  // namespace testing
}  // namespace scenerec

#endif  // SCENEREC_TESTS_TEST_UTIL_H_
