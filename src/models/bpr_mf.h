#ifndef SCENEREC_MODELS_BPR_MF_H_
#define SCENEREC_MODELS_BPR_MF_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace scenerec {

/// BPR-MF (Rendle et al. 2009): matrix factorization with an item bias,
/// trained with the pairwise BPR loss. Score(u, i) = p_u . q_i + b_i.
/// The benchmark baseline of Table 2.
class BprMf : public Recommender {
 public:
  BprMf(int64_t num_users, int64_t num_items, int64_t dim, Rng& rng);

  std::string name() const override { return "BPR-MF"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// Scoring reads only the embedding tables: no sampling, no caches.
  bool SupportsShardedLoss() const override { return true; }
  bool PrepareParallelScoring(ThreadPool&) override { return true; }

  /// A block is candidate-row dot products straight off the tables: one
  /// fixed-order kernels::Dot per item plus its bias, no gather copy.
  bool SupportsBlockScoring() const override { return true; }
  void ScoreBlock(int64_t user, std::span<const int64_t> items,
                  std::span<float> out) override;

  /// Score IS p_u . q_i + b_i, so the export is the raw item table plus the
  /// bias column (zero-copy when the tables are snapshot-mapped) and index
  /// inner products are bitwise model scores.
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return user_embedding_.dim(); }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

 private:
  Embedding user_embedding_;
  Embedding item_embedding_;
  Tensor item_bias_;  // [num_items, 1]
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_BPR_MF_H_
