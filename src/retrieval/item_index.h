#ifndef SCENEREC_RETRIEVAL_ITEM_INDEX_H_
#define SCENEREC_RETRIEVAL_ITEM_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "eval/top_n.h"
#include "models/recommender.h"

namespace scenerec {

// The candidate-generation half of two-stage serving (docs/retrieval.md):
// an ItemIndex answers "which ~K items maximize query . item (+ bias)" over
// a model's exported item-embedding matrix, without the O(catalog) exact
// scan of TopNRecommendations. It returns Recommendations whose `score` is
// the index's inner-product score, which for most models merely ranks
// candidates; callers rerank the survivors with exact ScoreBlock
// (retrieval/two_stage.h).

/// The two retrieval backends, as spelled on the CLI --retrieval flag.
enum class IndexKind { kExact, kIvf };

const char* IndexKindName(IndexKind kind);

/// Parses "exact" | "ivf"; InvalidArgument otherwise.
StatusOr<IndexKind> ParseIndexKind(const std::string& name);

/// Which backend to build, and the IVF settings (the exact backend has
/// none). The defaults are the documented operating point of
/// docs/retrieval.md (recall@100 >= 0.95 on the bench catalog).
struct IndexBuildConfig {
  IndexKind kind = IndexKind::kExact;
  int64_t nlist = 0;   // IVF lists; 0 = clamp(sqrt(num_items), 1, num_items)
  int64_t nprobe = 8;  // IVF lists scanned per query, clamped to [1, nlist]
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

  /// Writes the (up to) `k` best candidates into `out`, best first in
  /// BetterRecommendation order (eval/top_n.h). `query` must have dim()
  /// elements. `stats`, when non-null, is overwritten.
  virtual void Search(std::span<const float> query, int64_t k,
                      std::vector<Recommendation>* out,
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
                           std::vector<std::vector<Recommendation>>* outs,
                           std::vector<SearchStats>* stats = nullptr) const;
};

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_ITEM_INDEX_H_
