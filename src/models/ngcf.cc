#include "models/ngcf.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace scenerec {

Ngcf::Ngcf(const UserItemGraph* graph, int64_t dim, int64_t depth, Rng& rng,
           float message_dropout)
    : prop_(BuildUserItemPropagationGraph(*graph)),
      dim_(dim),
      depth_(depth),
      message_dropout_(message_dropout),
      dropout_rng_(rng.Next64()),
      embedding_(Tensor::RandomNormal(Shape({prop_.num_nodes(), dim}), 0.1f,
                                      rng, /*requires_grad=*/true)) {
  SCENEREC_CHECK_GT(depth, 0);
  SCENEREC_CHECK(message_dropout >= 0.0f && message_dropout < 1.0f);
  w1_.reserve(static_cast<size_t>(depth));
  w2_.reserve(static_cast<size_t>(depth));
  for (int64_t l = 0; l < depth; ++l) {
    w1_.push_back(Tensor::XavierUniform(dim, dim, rng));
    w2_.push_back(Tensor::XavierUniform(dim, dim, rng));
  }
}

std::vector<Tensor> Ngcf::Propagate() const {
  std::vector<Tensor> layers;
  layers.reserve(static_cast<size_t>(depth_) + 1);
  layers.push_back(embedding_);
  for (int64_t l = 0; l < depth_; ++l) {
    const Tensor& prev = layers.back();
    Tensor agg = SpMM(&prop_.adjacency, prop_.norm_weights, prev);
    // Message dropout (original NGCF): only during training.
    if (message_dropout_ > 0.0f && !NoGradGuard::enabled()) {
      agg = Dropout(agg, message_dropout_, dropout_rng_);
    }
    Tensor sum_term = MatMul(Add(agg, prev), w1_[static_cast<size_t>(l)]);
    Tensor bi_term = MatMul(Mul(agg, prev), w2_[static_cast<size_t>(l)]);
    layers.push_back(LeakyRelu(Add(sum_term, bi_term)));
  }
  return layers;
}

Tensor Ngcf::ScoreForTraining(int64_t user, int64_t item) {
  // Single-pair path (used by tests and the default Score); BatchLoss is the
  // efficient training entry point.
  std::vector<Tensor> layers = Propagate();
  Tensor total;
  for (const Tensor& layer : layers) {
    Tensor s = Dot(Row(layer, prop_.UserNode(user)),
                   Row(layer, prop_.ItemNode(item)));
    total = total.defined() ? Add(total, s) : s;
  }
  return total;
}

Tensor Ngcf::BatchLoss(std::span<const BprTriple> batch) {
  SCENEREC_CHECK(!batch.empty());
  std::vector<Tensor> layers = Propagate();
  Tensor total;
  for (const BprTriple& triple : batch) {
    Tensor pos, neg;
    for (const Tensor& layer : layers) {
      Tensor user_repr = Row(layer, prop_.UserNode(triple.user));
      Tensor p = Dot(user_repr, Row(layer, prop_.ItemNode(triple.positive_item)));
      Tensor n = Dot(user_repr, Row(layer, prop_.ItemNode(triple.negative_item)));
      pos = pos.defined() ? Add(pos, p) : p;
      neg = neg.defined() ? Add(neg, n) : n;
    }
    Tensor loss = BprPairLoss(pos, neg);
    total = total.defined() ? Add(total, loss) : loss;
  }
  return total;
}

void Ngcf::OnEvalBegin() {
  NoGradGuard no_grad;
  std::vector<Tensor> layers = Propagate();
  cached_layers_.clear();
  cached_layers_.reserve(layers.size());
  for (const Tensor& layer : layers) cached_layers_.push_back(layer.value());
}

bool Ngcf::PrepareParallelScoring(ThreadPool& pool) {
  (void)pool;  // one full-graph propagation; nothing to fan out
  if (cached_layers_.empty()) OnEvalBegin();
  return true;
}

void Ngcf::ScoreBlock(int64_t user, std::span<const int64_t> items,
                      std::span<float> out) {
  SCENEREC_CHECK_EQ(items.size(), out.size());
  if (cached_layers_.empty()) OnEvalBegin();
  const int64_t u = prop_.UserNode(user);
  for (size_t r = 0; r < items.size(); ++r) {
    const int64_t i = prop_.ItemNode(items[r]);
    float total = 0.0f;
    for (const auto& layer : cached_layers_) {
      total += kernels::Dot(layer.data() + u * dim_, layer.data() + i * dim_,
                            dim_);
    }
    out[r] = total;
  }
}

RetrievalEmbeddings Ngcf::ExportItemEmbeddings() {
  if (cached_layers_.empty()) OnEvalBegin();
  return ExportLayerConcat(cached_layers_, dim_, prop_.num_items,
                           prop_.ItemNode(0));
}

void Ngcf::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  if (cached_layers_.empty()) OnEvalBegin();
  WriteLayerConcatQuery(cached_layers_, dim_, prop_.UserNode(user), out);
}

void Ngcf::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(embedding_);
  for (const Tensor& w : w1_) out->push_back(w);
  for (const Tensor& w : w2_) out->push_back(w);
}

}  // namespace scenerec
