#include "models/recommender.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace scenerec {

Tensor Recommender::BatchLoss(std::span<const BprTriple> batch) {
  SCENEREC_CHECK(!batch.empty());
  Tensor total;
  for (const BprTriple& triple : batch) {
    Tensor loss =
        BprPairLoss(ScoreForTraining(triple.user, triple.positive_item),
                    ScoreForTraining(triple.user, triple.negative_item));
    total = total.defined() ? Add(total, loss) : loss;
  }
  return total;
}

Tensor Recommender::BatchLossShard(std::span<const BprTriple> shard,
                                   int64_t shard_index, Rng& rng) {
  (void)shard_index;
  SCENEREC_CHECK(SupportsShardedLoss())
      << name() << " was not audited for sharded training";
  SCENEREC_CHECK(!shard.empty());
  Tensor total;
  for (const BprTriple& triple : shard) {
    Tensor loss =
        BprPairLoss(ShardScore(triple.user, triple.positive_item, &rng),
                    ShardScore(triple.user, triple.negative_item, &rng));
    total = total.defined() ? Add(total, loss) : loss;
  }
  return total;
}

void RetrievalEmbeddings::AdoptItems(const FloatBuffer& buf) {
  if (buf.borrowed() && buf.owner() != nullptr) {
    items = buf.data();
    pin = buf.owner();
  } else {
    owned_items.assign(buf.data(), buf.data() + buf.size());
    items = owned_items.data();
  }
}

void RetrievalEmbeddings::AdoptBias(const FloatBuffer& buf) {
  // Borrow only when the bias shares the items' pin (one snapshot mapping);
  // a second distinct owner would need a second pin slot.
  if (buf.borrowed() && buf.owner() != nullptr &&
      (pin == nullptr || pin == buf.owner())) {
    bias = buf.data();
    if (pin == nullptr) pin = buf.owner();
  } else {
    owned_bias.assign(buf.data(), buf.data() + buf.size());
    bias = owned_bias.data();
  }
}

RetrievalEmbeddings ExportLayerConcat(
    const std::vector<std::vector<float>>& layers, int64_t dim,
    int64_t num_items, int64_t item_node_base) {
  SCENEREC_CHECK(!layers.empty());
  const int64_t out_dim = static_cast<int64_t>(layers.size()) * dim;
  RetrievalEmbeddings out;
  out.num_items = num_items;
  out.dim = out_dim;
  out.owned_items.resize(static_cast<size_t>(num_items * out_dim));
  for (int64_t i = 0; i < num_items; ++i) {
    float* row = out.owned_items.data() + i * out_dim;
    for (size_t l = 0; l < layers.size(); ++l) {
      const float* src = layers[l].data() + (item_node_base + i) * dim;
      std::copy(src, src + dim, row + static_cast<int64_t>(l) * dim);
    }
  }
  out.items = out.owned_items.data();
  return out;
}

void WriteLayerConcatQuery(const std::vector<std::vector<float>>& layers,
                           int64_t dim, int64_t node, std::span<float> out) {
  SCENEREC_CHECK_EQ(out.size(), layers.size() * static_cast<size_t>(dim));
  for (size_t l = 0; l < layers.size(); ++l) {
    const float* src = layers[l].data() + node * dim;
    std::copy(src, src + dim,
              out.begin() + static_cast<int64_t>(l) * dim);
  }
}

RetrievalEmbeddings Recommender::ExportItemEmbeddings() {
  SCENEREC_CHECK(false) << name() << " does not export retrieval embeddings";
  return {};
}

void Recommender::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  (void)user;
  (void)out;
  SCENEREC_CHECK(false) << name() << " does not export retrieval embeddings";
}

void Recommender::AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                                      uint64_t version) {
  (void)cache;
  (void)version;
  SCENEREC_CHECK(false) << name() << " does not support a user-repr cache";
}

float Recommender::Score(int64_t user, int64_t item) {
  float out = 0.0f;
  ScoreBlock(user, std::span<const int64_t>(&item, 1),
             std::span<float>(&out, 1));
  return out;
}

void Recommender::ScoreBlock(int64_t user, std::span<const int64_t> items,
                             std::span<float> out) {
  // Per-pair fallback: correct for every model, batched for none. Batching
  // models override.
  SCENEREC_CHECK_EQ(items.size(), out.size());
  NoGradGuard no_grad;
  for (size_t r = 0; r < items.size(); ++r) {
    out[r] = ScoreForTraining(user, items[r]).scalar();
  }
}

void Recommender::ScoreRows(std::span<const int64_t> users,
                            std::span<const int64_t> items,
                            std::span<float> out) {
  // Run-splitting fallback: one ScoreBlock per maximal same-user run, so a
  // daemon batch degrades to per-request block scoring. Cross-user batching
  // models override.
  SCENEREC_CHECK_EQ(users.size(), items.size());
  SCENEREC_CHECK_EQ(users.size(), out.size());
  size_t start = 0;
  while (start < users.size()) {
    size_t end = start + 1;
    while (end < users.size() && users[end] == users[start]) ++end;
    ScoreBlock(users[start], items.subspan(start, end - start),
               out.subspan(start, end - start));
    start = end;
  }
}

}  // namespace scenerec
