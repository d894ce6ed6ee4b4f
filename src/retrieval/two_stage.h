#ifndef SCENEREC_RETRIEVAL_TWO_STAGE_H_
#define SCENEREC_RETRIEVAL_TWO_STAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/recommender.h"
#include "retrieval/item_index.h"

namespace scenerec {

/// Two-stage Top-N (docs/retrieval.md): retrieve `num_candidates`
/// approximate candidates from `index` (RetrieveCandidatesBatch with one
/// user), then rerank the survivors with the EXACT model through
/// ScoreAndSelectTopN — the same scoring and selection step, tie order
/// included, as full-catalog serving.
///
/// Returned scores are exact model scores. Under kExactScores fidelity
/// with num_candidates >= catalog the result is identical to
/// TopNRecommendations; with a real candidate budget the only possible
/// difference is recall (a true top-n item the index failed to surface).
/// Empty for n <= 0. `stats`, when non-null, receives the index's
/// per-query accounting with `rescored` set to the reranked candidate
/// count.
std::vector<Recommendation> TwoStageTopN(Recommender& model,
                                         const ItemIndex& index,
                                         const UserItemGraph& train_graph,
                                         int64_t user, int64_t n,
                                         int64_t num_candidates,
                                         SearchStats* stats = nullptr);

/// Stage 1 of two-stage Top-N for a batch of users through ONE index sweep
/// (ItemIndex::MultiSearch), so the exact backend streams the item matrix
/// through cache once per batch instead of once per user. Each user's
/// query is over-fetched by the user's training degree, the user's
/// training interactions are dropped, and the survivors are truncated to
/// the budget: result [i] holds at most `num_candidates` unique unseen item
/// ids in the index's serving order. MultiSearch answers each query exactly
/// as Search would, so a user's list does not depend on the rest of the
/// batch; duplicate users are simply retrieved twice. TwoStageTopN and the
/// serving daemon's batches (src/serve/server.cc ServeBatch) both take
/// their candidates from here. `stats`, when non-null, is resized to
/// users.size() and receives each query's SearchStats with `rescored` set
/// to that user's candidate count.
std::vector<std::vector<int64_t>> RetrieveCandidatesBatch(
    Recommender& model, const ItemIndex& index,
    const UserItemGraph& train_graph, std::span<const int64_t> users,
    int64_t num_candidates, std::vector<SearchStats>* stats = nullptr);

/// Recall@k of `index` against `exact` over `users`: the mean fraction of
/// each user's exact top-k (by index scores, unmasked) that the candidate
/// index also returns in its top-k. The quality protocol behind the
/// recall@100 acceptance gate (tests/retrieval_test.cc, bench_retrieval).
double RetrievalRecallAtK(Recommender& model, const ItemIndex& index,
                          const ItemIndex& exact, int64_t k,
                          std::span<const int64_t> users);

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_TWO_STAGE_H_
