#ifndef SCENEREC_NN_EMBEDDING_H_
#define SCENEREC_NN_EMBEDDING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace scenerec {

/// A lookup table mapping ids in [0, vocab) to dense vectors of length
/// `dim`. Gradients flow only into looked-up rows and the optimizer updates
/// lazily via Tensor::touched_rows(), so tables with tens of thousands of
/// rows stay cheap per step. Serving from a snapshot rebinds the table's
/// storage in place to the mmap'd page (BindSnapshot, nn/snapshot.h).
class Embedding : public Module {
 public:
  /// Trainable table with rows i.i.d. N(0, stddev^2). The common recommender
  /// default stddev 0.1 keeps initial scores small.
  Embedding(int64_t vocab, int64_t dim, Rng& rng, float stddev = 0.1f);

  Embedding(const Embedding&) = delete;
  Embedding& operator=(const Embedding&) = delete;

  /// Moves SHARE the table tensor instead of stealing it: the moved-from
  /// embedding stays fully usable and both instances expose the same table
  /// node. This keeps an optimizer's collected handles — and their lazy
  /// touched_rows() row updates — bound to the live storage when the owning
  /// model is relocated (e.g. a vector of models reallocates).
  Embedding(Embedding&& other) noexcept;
  Embedding& operator=(Embedding&& other) noexcept;

  /// Embedding of one id -> rank-1 tensor [dim].
  Tensor Lookup(int64_t id) const;

  /// Embeddings of several ids -> [ids.size(), dim]. Duplicates allowed.
  Tensor LookupMany(const std::vector<int64_t>& ids) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  int64_t vocab() const { return vocab_; }
  int64_t dim() const { return dim_; }
  const Tensor& table() const { return table_; }

 private:
  int64_t vocab_;
  int64_t dim_;
  Tensor table_;  // [vocab, dim]; a shared handle to its node
};

}  // namespace scenerec

#endif  // SCENEREC_NN_EMBEDDING_H_
