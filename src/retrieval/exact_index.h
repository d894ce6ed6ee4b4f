#ifndef SCENEREC_RETRIEVAL_EXACT_INDEX_H_
#define SCENEREC_RETRIEVAL_EXACT_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "retrieval/item_index.h"

namespace scenerec {

/// The recall = 1.0 reference backend: a blocked exact top-K scan of the
/// whole item matrix. Each tile of rows is scored by kernels::Gemv — whose
/// row r IS the fixed-order kernels::Dot — so for BPR-MF, whose export is
/// its scoring table, every candidate score is bitwise equal to
/// Score(user, item) and the top-K list matches TopNRecommendations modulo
/// masking (tests/retrieval_test.cc asserts this).
class ExactIndex : public ItemIndex {
 public:
  explicit ExactIndex(RetrievalEmbeddings embeddings);

  std::string name() const override { return "exact"; }
  int64_t num_items() const override { return emb_.num_items; }
  int64_t dim() const override { return emb_.dim; }

  void Search(std::span<const float> query, int64_t k,
              std::vector<Recommendation>* out,
              SearchStats* stats = nullptr) const override;

  /// The shared sweep behind batched serving (serve/server.cc): ONE tiled
  /// pass over the item matrix scores every query while each tile is hot in
  /// cache (kernels::GemvMulti), instead of re-streaming the matrix per
  /// query. Per query the scores, ordering and selection are the exact
  /// Search path, so (*outs)[q] is bitwise Search(queries[q], ks[q]).
  void MultiSearch(std::span<const float> queries, std::span<const int64_t> ks,
                   std::vector<std::vector<Recommendation>>* outs,
                   std::vector<SearchStats>* stats = nullptr) const override;

 private:
  RetrievalEmbeddings emb_;
};

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_EXACT_INDEX_H_
