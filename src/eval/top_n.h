#ifndef SCENEREC_EVAL_TOP_N_H_
#define SCENEREC_EVAL_TOP_N_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"

namespace scenerec {

/// One ranked recommendation.
struct Recommendation {
  int64_t item = 0;
  float score = 0.0f;
};

/// The strict total order of every serving surface, on (score, item)
/// pairs: finite scores descending, ties by lower item id, then every
/// non-finite score (NaN, ±inf) by lower item id. No two distinct items
/// compare equal, so any correct selection algorithm yields the identical
/// top-n list. Both BetterRecommendation and retrieval's BetterCandidate
/// are this order.
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

/// The partial-selection routine behind ScoreAndSelectTopN: keeps the `n`
/// best entries of `scored` under BetterRecommendation, sorted, and counts
/// non-finite scores in serve/nonfinite_scores.
/// O(candidates + n log n) via nth_element — exactly the first n entries a
/// full sort would produce. n <= 0 returns empty; n beyond the candidate
/// count returns everything, sorted.
std::vector<Recommendation> SelectTopN(std::vector<Recommendation> scored,
                                       int64_t n);

/// SelectTopN on the caller's buffer: identical contents and order, but
/// `*scored` shrinks in place to the winners, keeping its capacity (no
/// per-request allocation).
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
/// daemon) ends here. Scores `candidates` for `user` in kScoreBlockSize
/// blocks and writes the `n` best into `*out` by partial selection —
/// O(candidates + n log n) — ordered by BetterRecommendation, which is the
/// list a full sort would give. `*out` is empty for n <= 0 or no
/// candidates, and shorter than n when there are fewer candidates.
///
/// Candidates must be unique. The score buffer and the selection staging
/// area are per-thread scratch, so a steady-state call allocates only the
/// winners in `*out`. Counts serve/topn_requests and serve/topn_candidates.
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
