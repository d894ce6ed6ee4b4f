#ifndef SCENEREC_MODELS_NGCF_H_
#define SCENEREC_MODELS_NGCF_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/propagation.h"
#include "models/recommender.h"
#include "tensor/tensor.h"

namespace scenerec {

/// NGCF (Wang et al. 2019): embedding propagation over the user-item graph.
/// Layer l computes, with L the symmetrically normalized adjacency,
///   E^(l) = LeakyReLU( (L E^(l-1) + E^(l-1)) W1_l
///                      + (L E^(l-1) ⊙ E^(l-1)) W2_l )
/// and the final representation of a node concatenates all layers; the score
/// is the inner product of user and item representations.
///
/// Training propagates the full graph once per BatchLoss call (so use
/// moderately large batches); evaluation uses representations cached by
/// OnEvalBegin.
class Ngcf : public Recommender {
 public:
  /// `graph` must outlive the model. `depth` is the number of propagation
  /// layers (the paper uses 4; small datasets train faster with 2).
  /// `message_dropout` (the original NGCF's regularizer) randomly drops
  /// propagated messages during training; 0 disables.
  Ngcf(const UserItemGraph* graph, int64_t dim, int64_t depth, Rng& rng,
       float message_dropout = 0.0f);

  std::string name() const override { return "NGCF"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void OnEvalBegin() override;
  /// After the cache refresh ScoreBlock is a pure read of the propagated
  /// layer snapshot, so concurrent scoring is safe.
  bool PrepareParallelScoring(ThreadPool& pool) override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// A block is per-layer fixed-order dot products against the cached
  /// candidate rows, accumulated layer-major per candidate.
  bool SupportsBlockScoring() const override { return true; }
  void ScoreBlock(int64_t user, std::span<const int64_t> items,
                  std::span<float> out) override;

  /// Layer-concat export (see ExportLayerConcat): the concatenated dot
  /// equals the per-layer sum up to float regrouping.
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return (depth_ + 1) * dim_; }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

  int64_t depth() const { return depth_; }

 protected:
  /// All layer outputs E^(0..depth), differentiable.
  std::vector<Tensor> Propagate() const;

  PropagationGraph prop_;
  int64_t dim_;
  int64_t depth_;
  float message_dropout_;
  mutable Rng dropout_rng_;
  Tensor embedding_;                // E^(0), [num_nodes, dim]
  std::vector<Tensor> w1_;          // per layer, [dim, dim]
  std::vector<Tensor> w2_;
  /// Inference cache: value snapshots of all layers.
  std::vector<std::vector<float>> cached_layers_;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_NGCF_H_
