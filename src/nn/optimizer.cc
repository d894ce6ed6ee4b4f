#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scenerec {

RmsPropOptimizer::RmsPropOptimizer(std::vector<Tensor> params,
                                   const OptimizerOptions& options)
    : params_(std::move(params)),
      options_(options),
      cache_(params_.size()),
      rows_(params_.size()) {
  for (const Tensor& p : params_) {
    SCENEREC_CHECK(p.defined());
    SCENEREC_CHECK(p.requires_grad()) << "optimizer given frozen tensor";
  }
}

void RmsPropOptimizer::Step() {
  // One sorted unique row list per sparse parameter, walked in the same
  // order by the clip norm and the update.
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    std::vector<int64_t>& rows = rows_[i];
    rows.clear();
    if (p.grad().empty() || p.shape().rank() != 2) continue;
    rows.assign(p.touched_rows().begin(), p.touched_rows().end());
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }

  // Optional global gradient-norm clipping: one pass to measure, then the
  // scale factor is folded into every update.
  float grad_scale = 1.0f;
  if (options_.clip_norm > 0.0f) {
    double sq = 0.0;
    for (size_t i = 0; i < params_.size(); ++i) {
      const Tensor& p = params_[i];
      const auto& g = p.grad();
      if (g.empty()) continue;
      if (!rows_[i].empty()) {
        const int64_t cols = p.shape().dim(1);
        for (int64_t row : rows_[i]) {
          const float* gr = g.data() + row * cols;
          for (int64_t c = 0; c < cols; ++c) {
            sq += static_cast<double>(gr[c]) * gr[c];
          }
        }
      } else {
        for (float v : g) sq += static_cast<double>(v) * v;
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_norm) {
      grad_scale = static_cast<float>(options_.clip_norm / norm);
    }
  }

  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const auto update = [&](float* value, const float* grad, float* cache,
                          int64_t begin, int64_t count) {
    for (int64_t i = begin; i < begin + count; ++i) {
      const float g = grad[i] * grad_scale + wd * value[i];
      cache[i] = kDecayRate * cache[i] + (1.0f - kDecayRate) * g * g;
      value[i] -= lr * g / (std::sqrt(cache[i]) + kEpsilon);
    }
  };
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;  // No gradient flowed into it.
    std::vector<float>& cache = cache_[i];
    if (cache.empty()) cache.assign(static_cast<size_t>(p.num_elements()), 0.0f);
    float* value = p.mutable_value().data();
    const float* grad = p.grad().data();
    if (!rows_[i].empty()) {
      const int64_t cols = p.shape().dim(1);
      for (int64_t row : rows_[i]) {
        update(value, grad, cache.data(), row * cols, cols);
      }
    } else {
      update(value, grad, cache.data(), 0, p.num_elements());
    }
  }
}

void RmsPropOptimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

}  // namespace scenerec
