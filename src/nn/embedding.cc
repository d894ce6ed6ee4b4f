#include "nn/embedding.h"

#include "tensor/ops.h"

namespace scenerec {

Embedding::Embedding(int64_t vocab, int64_t dim, Rng& rng, float stddev)
    : vocab_(vocab),
      dim_(dim),
      table_(Tensor::RandomNormal(Shape({vocab, dim}), stddev, rng,
                                  /*requires_grad=*/true)) {}

Embedding::Embedding(Embedding&& other) noexcept
    : vocab_(other.vocab_), dim_(other.dim_), table_(other.table_) {}

Embedding& Embedding::operator=(Embedding&& other) noexcept {
  vocab_ = other.vocab_;
  dim_ = other.dim_;
  table_ = other.table_;
  return *this;
}

Tensor Embedding::Lookup(int64_t id) const {
  return Reshape(Gather(table_, {id}), Shape({dim_}));
}

Tensor Embedding::LookupMany(const std::vector<int64_t>& ids) const {
  return Gather(table_, ids);
}

void Embedding::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(table_);
}

}  // namespace scenerec
