#include "models/bpr_mf.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace scenerec {

BprMf::BprMf(int64_t num_users, int64_t num_items, int64_t dim, Rng& rng)
    : user_embedding_(num_users, dim, rng),
      item_embedding_(num_items, dim, rng),
      item_bias_(Tensor::Zeros(Shape({num_items, 1}), /*requires_grad=*/true)) {
}

Tensor BprMf::ScoreForTraining(int64_t user, int64_t item) {
  Tensor p = user_embedding_.Lookup(user);
  Tensor q = item_embedding_.Lookup(item);
  Tensor bias = Reshape(Gather(item_bias_, {item}), Shape());
  return Add(Dot(p, q), bias);
}

void BprMf::ScoreBlock(int64_t user, std::span<const int64_t> items,
                       std::span<float> out) {
  SCENEREC_CHECK_EQ(items.size(), out.size());
  const auto& p = user_embedding_.table().value();
  const auto& q = item_embedding_.table().value();
  const auto& bias = item_bias_.value();
  const int64_t d = user_embedding_.dim();
  const float* prow = p.data() + user * d;
  for (size_t r = 0; r < items.size(); ++r) {
    const int64_t item = items[r];
    out[r] = bias[static_cast<size_t>(item)] +
             kernels::Dot(prow, q.data() + item * d, d);
  }
}

RetrievalEmbeddings BprMf::ExportItemEmbeddings() {
  RetrievalEmbeddings out;
  out.num_items = item_embedding_.vocab();
  out.dim = item_embedding_.dim();
  out.AdoptItems(item_embedding_.table().value());
  out.AdoptBias(item_bias_.value());  // [num_items, 1] is [num_items] flat
  return out;
}

void BprMf::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  const int64_t d = user_embedding_.dim();
  SCENEREC_CHECK_EQ(static_cast<int64_t>(out.size()), d);
  const float* prow = user_embedding_.table().value().data() + user * d;
  std::copy(prow, prow + d, out.begin());
}

void BprMf::CollectParameters(std::vector<Tensor>* out) const {
  user_embedding_.CollectParameters(out);
  item_embedding_.CollectParameters(out);
  out->push_back(item_bias_);
}

}  // namespace scenerec
