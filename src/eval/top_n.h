#ifndef SCENEREC_EVAL_TOP_N_H_
#define SCENEREC_EVAL_TOP_N_H_

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

/// The strict total order of every serving surface: finite scores
/// descending, ties by lower item id, then every non-finite score (NaN,
/// ±inf) by lower item id. No two distinct candidates compare equal, so any
/// correct selection algorithm yields the identical top-n list.
bool BetterRecommendation(const Recommendation& a, const Recommendation& b);

/// The shared partial-selection routine behind every Top-N surface
/// (TopNRecommendations, TwoStageTopN, the serving daemon's batch path):
/// keeps the `n` best entries of `scored` under BetterRecommendation, sorted,
/// and counts non-finite scores in serve/nonfinite_scores.
/// O(candidates + n log n) via nth_element — exactly the first n entries a
/// full sort would produce. n <= 0 returns empty; n beyond the candidate
/// count returns everything, sorted.
std::vector<Recommendation> SelectTopN(std::vector<Recommendation> scored,
                                       int64_t n);

/// SelectTopN on the caller's buffer: identical contents and order, but
/// `*scored` shrinks in place to the winners, keeping its capacity — the
/// serving daemon's per-batch scratch path (no per-request allocation).
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

/// The serving-path helper: scores every item the user has NOT interacted
/// with in `train_graph` and returns the `n` highest, ordered by descending
/// score (ties by lower item id). Returns fewer than `n` entries when the
/// user has interacted with almost the whole catalog, and an empty list for
/// n <= 0 or a fully interacted catalog (the daemon hits both).
///
/// The candidate list is scored in kScoreBlockSize blocks (the fast path for
/// models with ScoreBlock support) and the winners are picked by partial
/// selection — O(catalog + n log n), not O(catalog log catalog) — with the
/// same strict total order as a full sort, so the returned list is
/// identical. See docs/serving.md.
std::vector<Recommendation> TopNRecommendations(const BlockScoreFn& score,
                                                const UserItemGraph& train_graph,
                                                int64_t user, int64_t n);

/// Per-pair adapter of the above; identical results.
std::vector<Recommendation> TopNRecommendations(const ScoreFn& score,
                                                const UserItemGraph& train_graph,
                                                int64_t user, int64_t n);

/// The candidate-span entry point behind the two-stage retrieval path
/// (retrieval/two_stage.h): scores a PRE-BUILT candidate list for `user`
/// (chunked kScoreBlockSize blocks) and returns its top `n` under the same
/// score-desc/lower-id total order. Candidates are taken as given — no
/// interaction masking happens here — but duplicates ARE removed (first
/// occurrence wins) before scoring, so a repeated id can neither be scored
/// twice nor occupy two ranks of the result.
std::vector<Recommendation> TopNRecommendations(
    const BlockScoreFn& score, int64_t user,
    std::span<const int64_t> candidates, int64_t n);

}  // namespace scenerec

#endif  // SCENEREC_EVAL_TOP_N_H_
