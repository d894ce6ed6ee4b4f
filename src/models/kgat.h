#ifndef SCENEREC_MODELS_KGAT_H_
#define SCENEREC_MODELS_KGAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/propagation.h"
#include "models/recommender.h"
#include "tensor/tensor.h"

namespace scenerec {

/// KGAT (Wang et al. 2019) adapted to the scene setting exactly as in the
/// paper's baseline protocol (Section 5.2): the knowledge graph is the
/// degraded scene graph with only item-scene connections (relations
/// "belongs to" / "includes"), merged with the user-item interaction graph
/// into one entity space (users, items, scenes).
///
/// Attention pi(h, r, t) = (W_r e_t)^T tanh(W_r e_h + e_r) is recomputed once
/// per epoch from the current embeddings (KGAT's alternating schedule) and
/// used as constant edge coefficients, softmax-normalized per head entity;
/// propagation then uses the NGCF-style bi-interaction aggregator. The
/// relation parameters (e_r, W_r) are trained by a TransR-style auxiliary
/// loss over sampled item-scene triples added to each batch (a lightweight
/// version of KGAT's alternating KG-embedding objective).
class Kgat : public Recommender {
 public:
  /// Both graphs must outlive the model.
  Kgat(const UserItemGraph* graph, const SceneGraph* scene, int64_t dim,
       int64_t depth, Rng& rng);

  std::string name() const override { return "KGAT"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void OnEpochBegin() override;
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

 private:
  std::vector<Tensor> Propagate() const;
  /// Recomputes softmax-normalized attention coefficients per edge.
  void RefreshAttention();
  /// TransR-style BPR loss over `count` sampled (item, belongs-to, scene)
  /// triples with corrupted tails; trains e_r and W_r.
  Tensor KgEmbeddingLoss(int64_t count);

  KgatGraph graph_;
  int64_t dim_;
  int64_t depth_;
  Tensor embedding_;                 // entity embeddings [num_nodes, dim]
  Tensor relation_embedding_;        // [kNumRelations, dim]
  std::vector<Tensor> relation_w_;   // W_r per relation, [dim, dim]
  std::vector<Tensor> w1_;           // aggregator weights per layer
  std::vector<Tensor> w2_;
  std::shared_ptr<const std::vector<float>> attention_;  // per edge
  std::vector<std::vector<float>> cached_layers_;
  /// (item node, scene node) pairs of the KG part, for TransR sampling.
  std::vector<std::pair<int64_t, int64_t>> kg_triples_;
  Rng kg_rng_;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_KGAT_H_
