#ifndef SCENEREC_EVAL_TOP_N_H_
#define SCENEREC_EVAL_TOP_N_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"

namespace scenerec {

/// One ranked recommendation: the entry type of every reply, retrieval
/// list and TopK buffer. Packed to 12 bytes, 4-byte aligned, so a caller
/// that keeps its replies keeps a quarter less than the padded 16-byte
/// layout would hold. `item` may sit on a 4-byte boundary: copy it, do not
/// take its address as an `int64_t*`.
struct __attribute__((packed, aligned(4))) Recommendation {
  int64_t item = 0;
  float score = 0.0f;
};
static_assert(sizeof(Recommendation) == 12);

/// The strict total order of every ranked list the library returns, on
/// (score, item) pairs: finite scores descending, ties by lower item id,
/// then every non-finite score (NaN, ±inf) by lower item id. No two
/// distinct items compare equal, so any correct selection algorithm yields
/// the identical top-n list.
inline bool RanksBefore(float score_a, int64_t item_a, float score_b,
                        int64_t item_b) {
  // Non-finite scores form one class below every finite score, ordered by
  // item id: NaN compares unordered with everything, so letting it into the
  // score comparison would break the strict weak ordering nth_element and
  // sort rely on. For two finite scores this is the plain order.
  const bool a_finite = std::isfinite(score_a);
  if (a_finite != std::isfinite(score_b)) return a_finite;
  if (a_finite && score_a != score_b) return score_a > score_b;
  return item_a < item_b;
}

inline bool BetterRecommendation(const Recommendation& a,
                                 const Recommendation& b) {
  return RanksBefore(a.score, a.item, b.score, b.item);
}

/// The one selector behind every ranked list: exact and IVF retrieval, the
/// exact sweep's chunk merge and Top-N (ScoreAndSelectTopN) all keep their
/// k best offers here, under BetterRecommendation.
///
/// Offers collect in a buffer of at most 2k entries. Whenever it fills, one
/// nth_element keeps its best k and, once their worst score is finite, that
/// score becomes the threshold below which later offers are dropped unseen:
/// k kept finite entries beat them whatever their ids. The order is a
/// strict total order, so the sorted top-k is unique, and Take() returns
/// exactly the first k entries a full sort of everything offered would,
/// whatever the offer order or split. A steady-state offer is one compare
/// against the threshold, so a row below the current k-th score never
/// becomes a Recommendation. Does not dedupe: offer each item once.
class TopK {
 public:
  /// Offers nothing until Reset.
  TopK() = default;
  explicit TopK(int64_t k) { Reset(k); }

  /// Empties the buffer and starts selecting the best `k` >= 1 of the
  /// offers that follow. The buffer reserves 2k entries and keeps its
  /// capacity, so reuse at no larger k allocates nothing. Clamp k to the
  /// number of entries that can be offered.
  void Reset(int64_t k);

  void Offer(int64_t item, float score) {
    // Strictly below the finite threshold, NaN or -inf: k kept finite
    // entries beat it. (+inf passes and the next Shrink drops it.)
    if (full_ && !(score >= threshold_)) return;
    kept_.push_back({item, score});
    if (kept_.size() == 2 * k_) Shrink();
  }

  /// Offer(items[r], scores[r]) for every row, in order. On x86-64 a full
  /// buffer tests the threshold four rows at a time (one SSE2 compare and
  /// movemask), so four rows below it cost one compare.
  void OfferBlock(std::span<const int64_t> items,
                  std::span<const float> scores);
  /// OfferBlock for the consecutive ids first_item, first_item + 1, ...
  void OfferBlock(int64_t first_item, std::span<const float> scores);

  /// Offers every entry `other` kept. Each part's kept set holds every
  /// member of the overall top-k that was offered to it, so absorbing the
  /// parts of a split leaves exactly the top-k of offering everything here.
  void Absorb(const TopK& other);

  /// Copies the kept entries, best first, into `*out`, replacing its
  /// contents and reusing its capacity, so `*out` holds exactly the
  /// winners. Reset before offering again.
  void Take(std::vector<Recommendation>* out);

 private:
  void Shrink();
  template <typename ItemOf>
  void OfferRows(std::span<const float> scores, ItemOf item_of);

  size_t k_ = 0;
  std::vector<Recommendation> kept_;
  bool full_ = false;
  float threshold_ = 0.0f;
};

/// TopK over the caller's buffer: `*scored` becomes its `n` best entries,
/// best first, and keeps its capacity. Counts its non-finite scores in
/// serve/nonfinite_scores. n <= 0 leaves it empty.
void SelectTopNInPlace(std::vector<Recommendation>* scored, int64_t n);

/// The full-catalog candidate-list build step: every item `user` has NOT
/// interacted with in `train_graph`, in ascending id order. Duplicate-free
/// by construction. Empty when the user interacted with the whole catalog.
std::vector<int64_t> UninteractedItems(const UserItemGraph& train_graph,
                                       int64_t user);

/// Out-param overload: replaces `*out` with the same list, reusing its
/// capacity (serving scratch reuse).
void UninteractedItems(const UserItemGraph& train_graph, int64_t user,
                       std::vector<int64_t>* out);

/// The one place a Top-N list is scored and selected: every Top-N surface
/// (both TopNRecommendations overloads, TwoStageTopN and the serving
/// daemon) ends here. Scores `candidates` for `user` one kScoreBlockSize
/// block at a time into per-thread scratch and offers each block to a TopK
/// of `n`, so `*out` receives the `n` best in BetterRecommendation order —
/// the list a full sort would give. `*out` is empty for n <= 0 or no
/// candidates, and shorter than n when there are fewer candidates.
///
/// Candidates must be unique. A steady-state call allocates only the
/// winners in `*out`. Counts serve/topn_requests, serve/topn_candidates and
/// the non-finite scores in serve/nonfinite_scores.
void ScoreAndSelectTopN(const BlockScoreFn& score, int64_t user,
                        std::span<const int64_t> candidates, int64_t n,
                        std::vector<Recommendation>* out);

/// Full-catalog Top-N: the `n` highest-scored items the user has NOT
/// interacted with in `train_graph` (UninteractedItems, then
/// ScoreAndSelectTopN). Fewer than `n` entries when the user has interacted
/// with almost the whole catalog; empty for n <= 0 or a fully interacted
/// catalog. See docs/serving.md.
std::vector<Recommendation> TopNRecommendations(const BlockScoreFn& score,
                                                const UserItemGraph& train_graph,
                                                int64_t user, int64_t n);

/// Top-N over a PRE-BUILT candidate list for `user`. Candidates are taken
/// as given — no interaction masking happens here — but duplicates ARE
/// removed (first occurrence wins) before ScoreAndSelectTopN, so a
/// repeated id can neither be scored twice nor occupy two ranks.
std::vector<Recommendation> TopNRecommendations(
    const BlockScoreFn& score, int64_t user,
    std::span<const int64_t> candidates, int64_t n);

}  // namespace scenerec

#endif  // SCENEREC_EVAL_TOP_N_H_
