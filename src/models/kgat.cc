#include "models/kgat.h"

#include <cmath>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace scenerec {

Kgat::Kgat(const UserItemGraph* graph, const SceneGraph* scene, int64_t dim,
           int64_t depth, Rng& rng)
    : graph_(BuildKgatGraph(*graph, *scene)),
      dim_(dim),
      depth_(depth),
      embedding_(Tensor::RandomNormal(
          Shape({graph_.propagation.num_nodes(), dim}), 0.1f, rng,
          /*requires_grad=*/true)),
      relation_embedding_(Tensor::RandomNormal(
          Shape({KgatGraph::kNumRelations, dim}), 0.1f, rng,
          /*requires_grad=*/true)),
      kg_rng_(rng.Next64()) {
  SCENEREC_CHECK_GT(depth, 0);
  for (int32_t r = 0; r < KgatGraph::kNumRelations; ++r) {
    relation_w_.push_back(Tensor::XavierUniform(dim, dim, rng));
  }
  for (int64_t l = 0; l < depth; ++l) {
    w1_.push_back(Tensor::XavierUniform(dim, dim, rng));
    w2_.push_back(Tensor::XavierUniform(dim, dim, rng));
  }
  // Collect the KG (item, scene) pairs for TransR sampling.
  for (int64_t i = 0; i < scene->num_items(); ++i) {
    const int64_t item_node = graph_.propagation.ItemNode(i);
    for (int64_t s : scene->ScenesOfItem(i)) {
      kg_triples_.push_back({item_node, graph_.propagation.ExtraNode(s)});
    }
  }
  RefreshAttention();
}

Tensor Kgat::KgEmbeddingLoss(int64_t count) {
  if (kg_triples_.empty()) return Tensor::Scalar(0.0f);
  const PropagationGraph& prop = graph_.propagation;
  Tensor total;
  for (int64_t n = 0; n < count; ++n) {
    // Rotate through all three relations so every W_r / e_r trains.
    const int32_t r = static_cast<int32_t>(n % KgatGraph::kNumRelations);
    int64_t head = 0, tail = 0, bad_tail = 0;
    const auto& [item_node, scene_node] =
        kg_triples_[kg_rng_.NextInt(kg_triples_.size())];
    switch (r) {
      case KgatGraph::kRelationBelongsTo:
        head = item_node;
        tail = scene_node;
        bad_tail = prop.ExtraNode(static_cast<int64_t>(
            kg_rng_.NextInt(static_cast<uint64_t>(prop.num_extra))));
        break;
      case KgatGraph::kRelationIncludes:
        head = scene_node;
        tail = item_node;
        bad_tail = prop.ItemNode(static_cast<int64_t>(
            kg_rng_.NextInt(static_cast<uint64_t>(prop.num_items))));
        break;
      default: {  // kRelationInteract: a user-item edge from the graph
        const int64_t user = static_cast<int64_t>(
            kg_rng_.NextInt(static_cast<uint64_t>(prop.num_users)));
        auto items = prop.adjacency.Neighbors(prop.UserNode(user));
        if (items.empty()) continue;
        head = prop.UserNode(user);
        tail = items[kg_rng_.NextInt(items.size())];
        bad_tail = prop.ItemNode(static_cast<int64_t>(
            kg_rng_.NextInt(static_cast<uint64_t>(prop.num_items))));
        break;
      }
    }
    const Tensor& w_r = relation_w_[static_cast<size_t>(r)];
    Tensor e_r = Reshape(Gather(relation_embedding_, {r}), Shape({dim_}));
    Tensor e_h = Reshape(Gather(embedding_, {head}), Shape({dim_}));
    Tensor e_t = Reshape(Gather(embedding_, {tail}), Shape({dim_}));
    Tensor e_bad = Reshape(Gather(embedding_, {bad_tail}), Shape({dim_}));
    Tensor projected_head = Add(MatVec(w_r, e_h), e_r);
    auto sq_dist = [&](const Tensor& t) {
      Tensor diff = Sub(projected_head, MatVec(w_r, t));
      return Sum(Mul(diff, diff));
    };
    // TransR pairwise objective: observed tail closer than corrupted tail.
    Tensor loss = Softplus(Sub(sq_dist(e_t), sq_dist(e_bad)));
    total = total.defined() ? Add(total, loss) : loss;
  }
  return total.defined() ? total : Tensor::Scalar(0.0f);
}

void Kgat::RefreshAttention() {
  // pi(h, r, t) = (W_r e_t)^T tanh(W_r e_h + e_r), computed on raw values
  // (constants w.r.t. the autograd graph), then softmax over each head's
  // out-edges.
  const CsrGraph& adj = graph_.propagation.adjacency;
  const auto& emb = embedding_.value();
  const auto& rel = relation_embedding_.value();

  // Precompute W_r e_x for every (relation, node) once: O(R * N * d^2),
  // instead of O(E * d^2) per-edge transforms.
  const int64_t num_nodes = adj.num_src();
  std::vector<std::vector<float>> transformed(
      static_cast<size_t>(KgatGraph::kNumRelations));
  for (int32_t r = 0; r < KgatGraph::kNumRelations; ++r) {
    auto& slab = transformed[static_cast<size_t>(r)];
    slab.assign(static_cast<size_t>(num_nodes * dim_), 0.0f);
    const auto& w = relation_w_[static_cast<size_t>(r)].value();
    for (int64_t node = 0; node < num_nodes; ++node) {
      const float* e = emb.data() + node * dim_;
      float* out = slab.data() + node * dim_;
      for (int64_t i = 0; i < dim_; ++i) {
        float acc = 0.0f;
        const float* wrow = w.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j) acc += wrow[j] * e[j];
        out[i] = acc;
      }
    }
  }

  auto logits = std::make_shared<std::vector<float>>();
  logits->reserve(static_cast<size_t>(adj.num_edges()));
  size_t edge_index = 0;
  for (int64_t h = 0; h < adj.num_src(); ++h) {
    auto neighbors = adj.Neighbors(h);
    const size_t row_begin = logits->size();
    float row_max = -1e30f;
    for (size_t j = 0; j < neighbors.size(); ++j, ++edge_index) {
      const int32_t r = graph_.edge_relation[edge_index];
      const float* wh = transformed[static_cast<size_t>(r)].data() + h * dim_;
      const float* wt =
          transformed[static_cast<size_t>(r)].data() + neighbors[j] * dim_;
      const float* er = rel.data() + r * dim_;
      float score = 0.0f;
      for (int64_t c = 0; c < dim_; ++c) {
        score += wt[c] * std::tanh(wh[c] + er[c]);
      }
      logits->push_back(score);
      row_max = std::max(row_max, score);
    }
    // Softmax-normalize this head's out-edges in place.
    float denom = 0.0f;
    for (size_t j = row_begin; j < logits->size(); ++j) {
      (*logits)[j] = std::exp((*logits)[j] - row_max);
      denom += (*logits)[j];
    }
    if (denom > 0.0f) {
      for (size_t j = row_begin; j < logits->size(); ++j) {
        (*logits)[j] /= denom;
      }
    }
  }
  attention_ = std::move(logits);
}

std::vector<Tensor> Kgat::Propagate() const {
  std::vector<Tensor> layers;
  layers.reserve(static_cast<size_t>(depth_) + 1);
  layers.push_back(embedding_);
  for (int64_t l = 0; l < depth_; ++l) {
    const Tensor& prev = layers.back();
    Tensor agg = SpMM(&graph_.propagation.adjacency, attention_, prev);
    Tensor sum_term = MatMul(Add(agg, prev), w1_[static_cast<size_t>(l)]);
    Tensor bi_term = MatMul(Mul(agg, prev), w2_[static_cast<size_t>(l)]);
    layers.push_back(LeakyRelu(Add(sum_term, bi_term)));
  }
  return layers;
}

Tensor Kgat::ScoreForTraining(int64_t user, int64_t item) {
  std::vector<Tensor> layers = Propagate();
  Tensor total;
  for (const Tensor& layer : layers) {
    Tensor s = Dot(Row(layer, graph_.propagation.UserNode(user)),
                   Row(layer, graph_.propagation.ItemNode(item)));
    total = total.defined() ? Add(total, s) : s;
  }
  return total;
}

Tensor Kgat::BatchLoss(std::span<const BprTriple> batch) {
  SCENEREC_CHECK(!batch.empty());
  std::vector<Tensor> layers = Propagate();
  Tensor total;
  for (const BprTriple& triple : batch) {
    Tensor pos, neg;
    for (const Tensor& layer : layers) {
      Tensor user_repr = Row(layer, graph_.propagation.UserNode(triple.user));
      Tensor p = Dot(user_repr,
                     Row(layer, graph_.propagation.ItemNode(triple.positive_item)));
      Tensor n = Dot(user_repr,
                     Row(layer, graph_.propagation.ItemNode(triple.negative_item)));
      pos = pos.defined() ? Add(pos, p) : p;
      neg = neg.defined() ? Add(neg, n) : n;
    }
    Tensor loss = BprPairLoss(pos, neg);
    total = total.defined() ? Add(total, loss) : loss;
  }
  // Alternating objective folded into one step: a few TransR triples per
  // batch keep the relation space (and thus the attention) trained.
  const int64_t kg_samples =
      std::max<int64_t>(1, static_cast<int64_t>(batch.size()) / 8);
  total = Add(total, Scale(KgEmbeddingLoss(kg_samples), 0.5f));
  return total;
}

void Kgat::OnEpochBegin() { RefreshAttention(); }

void Kgat::OnEvalBegin() {
  NoGradGuard no_grad;
  std::vector<Tensor> layers = Propagate();
  cached_layers_.clear();
  cached_layers_.reserve(layers.size());
  for (const Tensor& layer : layers) cached_layers_.push_back(layer.value());
}

bool Kgat::PrepareParallelScoring(ThreadPool& pool) {
  (void)pool;  // one full-graph propagation; nothing to fan out
  if (cached_layers_.empty()) OnEvalBegin();
  return true;
}

void Kgat::ScoreBlock(int64_t user, std::span<const int64_t> items,
                      std::span<float> out) {
  SCENEREC_CHECK_EQ(items.size(), out.size());
  if (cached_layers_.empty()) OnEvalBegin();
  const int64_t u = graph_.propagation.UserNode(user);
  for (size_t r = 0; r < items.size(); ++r) {
    const int64_t i = graph_.propagation.ItemNode(items[r]);
    float total = 0.0f;
    for (const auto& layer : cached_layers_) {
      total += kernels::Dot(layer.data() + u * dim_, layer.data() + i * dim_,
                            dim_);
    }
    out[r] = total;
  }
}

RetrievalEmbeddings Kgat::ExportItemEmbeddings() {
  if (cached_layers_.empty()) OnEvalBegin();
  return ExportLayerConcat(cached_layers_, dim_, graph_.propagation.num_items,
                           graph_.propagation.ItemNode(0));
}

void Kgat::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  if (cached_layers_.empty()) OnEvalBegin();
  WriteLayerConcatQuery(cached_layers_, dim_, graph_.propagation.UserNode(user),
                        out);
}

void Kgat::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(embedding_);
  out->push_back(relation_embedding_);
  for (const Tensor& w : relation_w_) out->push_back(w);
  for (const Tensor& w : w1_) out->push_back(w);
  for (const Tensor& w : w2_) out->push_back(w);
}

}  // namespace scenerec
