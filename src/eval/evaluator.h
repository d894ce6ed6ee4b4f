#ifndef SCENEREC_EVAL_EVALUATOR_H_
#define SCENEREC_EVAL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/split.h"
#include "graph/bipartite_graph.h"
#include "eval/metrics.h"

namespace scenerec {

/// Scores one user against a block of candidate items, writing
/// out[r] = score(user, items[r]); higher means more likely to be clicked.
/// The contract (docs/serving.md): out and items have the same length, and
/// out[r] depends only on (user, items[r]), so how candidates are split
/// into blocks never changes a score.
using BlockScoreFn = std::function<void(
    int64_t user, std::span<const int64_t> items, std::span<float> out)>;

/// Candidates per ScoreBlock dispatch on the full-ranking and Top-N paths.
/// Bounds per-instance scratch (ids + scores) to a few KB so blocks stay
/// cache-resident; rank counting is order-independent, so chunking cannot
/// change metrics.
inline constexpr int64_t kScoreBlockSize = 1024;

/// Runs the paper's ranking protocol (Section 5.3): for every evaluation
/// instance the positive is ranked against its sampled negatives, and HR@K /
/// NDCG@K / MRR are averaged over instances.
///
/// When `pool` is non-null, instances are scored in parallel; `score` must
/// then be safe to call concurrently (see
/// Recommender::PrepareParallelScoring). Per-instance results are reduced
/// in instance order, so the metrics are bitwise identical to a serial run.
///
/// Each instance is scored with ONE block dispatch ([positive, negatives...]),
/// so batching models pay per-candidate cost, not per-call cost.
RankingMetrics EvaluateRanking(const BlockScoreFn& score,
                               const std::vector<EvalInstance>& instances,
                               int64_t k, ThreadPool* pool = nullptr);

/// Stricter all-item protocol (as used by the NGCF/KGAT papers): each
/// instance's positive is ranked against the ENTIRE item vocabulary except
/// the user's training interactions (the instance's sampled negative list is
/// ignored). Far more expensive — O(num_items) scores per instance — but
/// free of negative-sampling variance. Same `pool` contract as
/// EvaluateRanking.
///
/// Masking is a candidate-list build step: the positive followed by
/// UninteractedItems (eval/top_n.h) without it, scored in kScoreBlockSize
/// chunks, which turns the protocol into row-batched sweeps for models with
/// ScoreBlock support.
RankingMetrics EvaluateFullRanking(const BlockScoreFn& score,
                                   const UserItemGraph& train_graph,
                                   const std::vector<EvalInstance>& instances,
                                   int64_t k, ThreadPool* pool = nullptr);

}  // namespace scenerec

#endif  // SCENEREC_EVAL_EVALUATOR_H_
