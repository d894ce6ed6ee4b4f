#ifndef SCENEREC_RETRIEVAL_ITEM_INDEX_H_
#define SCENEREC_RETRIEVAL_ITEM_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "eval/top_n.h"
#include "models/recommender.h"

namespace scenerec {

// The candidate-generation half of two-stage serving (docs/retrieval.md):
// an ItemIndex answers "which ~K items maximize query . item (+ bias)" over
// a model's exported item-embedding matrix, without the O(catalog) exact
// scan of TopNRecommendations. Index scores are MODEL scores only under
// RetrievalFidelity::kExactScores; otherwise they merely rank candidates
// and callers rerank the survivors with exact ScoreBlock
// (retrieval/two_stage.h).

/// One retrieved candidate. `score` is the index's inner-product score —
/// NOT necessarily the model score; see the fidelity note above.
struct RetrievalCandidate {
  int64_t item = 0;
  float score = 0.0f;
};

/// Per-query work accounting, for tests/benches and the CLI summaries.
struct SearchStats {
  int64_t lists_probed = 0;   // coarse lists visited (1 scan for flat indexes)
  int64_t items_scanned = 0;  // embeddings scored (approximately or exactly)
  int64_t rescored = 0;       // candidates handed to the exact rerank
};

/// Read-only ANN index over an exported item-embedding matrix. Search is
/// const and allocation-local, so one index serves concurrent queries
/// (tests/retrieval_test.cc runs it under TSan).
class ItemIndex {
 public:
  virtual ~ItemIndex() = default;

  /// Backend name: "exact" or "ivf".
  virtual std::string name() const = 0;
  virtual int64_t num_items() const = 0;
  virtual int64_t dim() const = 0;
  /// Fidelity declared by the exporting model.
  virtual RetrievalFidelity fidelity() const = 0;

  /// Writes the (up to) `k` best candidates into `out`, in BetterCandidate
  /// order. `query` must have dim() elements. `stats`, when non-null, is
  /// overwritten.
  virtual void Search(std::span<const float> query, int64_t k,
                      std::vector<RetrievalCandidate>* out,
                      SearchStats* stats = nullptr) const = 0;

  /// Batched Search: `queries` holds nq = ks.size() query vectors of dim()
  /// elements back to back; (*outs)[q] receives exactly what
  /// Search(queries[q], ks[q]) would — the serving daemon's shared
  /// retrieval sweep depends on that bitwise equivalence
  /// (tests/retrieval_test.cc asserts it per backend). The base
  /// implementation is a per-query Search loop; backends override it when
  /// one pass over the index can serve every query (ExactIndex scores all
  /// queries per item tile via kernels::GemvMulti while the tile is hot in
  /// cache). `stats`, when non-null, is resized to nq and overwritten.
  virtual void MultiSearch(std::span<const float> queries,
                           std::span<const int64_t> ks,
                           std::vector<std::vector<RetrievalCandidate>>* outs,
                           std::vector<SearchStats>* stats = nullptr) const;
};

/// The strict total order every backend returns results in: the serving
/// order of eval/top_n.h (finite scores desc, lower item id first, then
/// every non-finite score by id), so the exact backend's list is bitwise
/// comparable against TopNRecommendations and a NaN row cannot break
/// selection.
inline bool BetterCandidate(const RetrievalCandidate& a,
                            const RetrievalCandidate& b) {
  return RanksBefore(a.score, a.item, b.score, b.item);
}

/// In-place partial selection of the top `k` under BetterCandidate:
/// truncates `candidates` to min(k, size) entries, sorted.
void SelectTopK(std::vector<RetrievalCandidate>* candidates, int64_t k);

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_ITEM_INDEX_H_
