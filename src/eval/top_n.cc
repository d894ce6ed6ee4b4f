#include "eval/top_n.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace scenerec {

namespace {

// Serving telemetry (docs/observability.md): request rate and candidate
// throughput of the Top-N path.
const telemetry::Counter t_requests =
    telemetry::RegisterCounter("serve/topn_requests");
const telemetry::Counter t_candidates =
    telemetry::RegisterCounter("serve/topn_candidates");
// Candidates whose score was NaN or ±inf when they reached selection; they
// rank after every finite score (see BetterRecommendation).
const telemetry::Counter t_nonfinite =
    telemetry::RegisterCounter("serve/nonfinite_scores");

}  // namespace

void SelectTopNInPlace(std::vector<Recommendation>* scored, int64_t n) {
  SCENEREC_CHECK(scored != nullptr);
  if (n <= 0) {
    scored->clear();
    return;
  }
  // BetterRecommendation, applied class by class: one partition moves the
  // non-finite scores behind the finite ones (and counts them), so the
  // finite prefix is ordered by score then item — NaN-free, a strict total
  // order there — and the tail by item alone. Each class takes partial
  // selection: move its winners to the front in O(candidates), then order
  // just that prefix, so the result is exactly the first n entries a full
  // sort under BetterRecommendation would produce.
  const auto tail = std::partition(
      scored->begin(), scored->end(),
      [](const Recommendation& r) { return std::isfinite(r.score); });
  const size_t finite = static_cast<size_t>(tail - scored->begin());
  if (tail != scored->end()) t_nonfinite.Add(scored->size() - finite);
  const size_t keep = std::min<size_t>(static_cast<size_t>(n), scored->size());
  const auto select = [](auto begin, auto end, size_t k, auto better) {
    const auto kth = begin + static_cast<ptrdiff_t>(k);
    if (kth != end) std::nth_element(begin, kth, end, better);
    std::sort(begin, kth, better);
  };
  select(scored->begin(), tail, std::min(keep, finite),
         [](const Recommendation& a, const Recommendation& b) {
           return a.score != b.score ? a.score > b.score : a.item < b.item;
         });
  if (keep > finite) {
    select(tail, scored->end(), keep - finite,
           [](const Recommendation& a, const Recommendation& b) {
             return a.item < b.item;
           });
  }
  scored->resize(keep);
}

std::vector<Recommendation> SelectTopN(std::vector<Recommendation> scored,
                                       int64_t n) {
  SelectTopNInPlace(&scored, n);
  return scored;
}

void UninteractedItems(const UserItemGraph& train_graph, int64_t user,
                       std::vector<int64_t>* out) {
  SCENEREC_CHECK(user >= 0 && user < train_graph.num_users());
  SCENEREC_CHECK(out != nullptr);
  out->clear();
  out->reserve(static_cast<size_t>(train_graph.num_items()));
  // One walk of the catalog alongside the user's sorted, duplicate-free
  // interaction list, emitting the gaps between interacted items: the same
  // ids a HasInteraction filter keeps, without a binary search per item.
  int64_t next = 0;
  for (const int64_t seen : train_graph.ItemsOfUser(user)) {
    for (; next < seen; ++next) out->push_back(next);
    next = seen + 1;
  }
  for (; next < train_graph.num_items(); ++next) out->push_back(next);
}

std::vector<int64_t> UninteractedItems(const UserItemGraph& train_graph,
                                       int64_t user) {
  std::vector<int64_t> ids;
  UninteractedItems(train_graph, user, &ids);
  return ids;
}

void ScoreAndSelectTopN(const BlockScoreFn& score, int64_t user,
                        std::span<const int64_t> candidates, int64_t n,
                        std::vector<Recommendation>* out) {
  SCENEREC_CHECK(out != nullptr);
  t_requests.Add(1);
  t_candidates.Add(static_cast<uint64_t>(candidates.size()));
  out->clear();
  if (candidates.empty() || n <= 0) return;

  // Per-thread scratch: parallel evaluation and the daemon call this from
  // several threads, and both buffers are catalog-sized.
  thread_local std::vector<float> scores;
  thread_local std::vector<Recommendation> scored;
  scores.resize(candidates.size());
  for (size_t offset = 0; offset < candidates.size();
       offset += static_cast<size_t>(kScoreBlockSize)) {
    const size_t len = std::min(static_cast<size_t>(kScoreBlockSize),
                                candidates.size() - offset);
    SCENEREC_TRACE_SPAN_F("serve/score_block", "serve", trace::Floor::kOp,
                          "user=%lld candidates=%zu",
                          static_cast<long long>(user), len);
    score(user, candidates.subspan(offset, len),
          std::span<float>(scores).subspan(offset, len));
  }
  scored.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    scored.push_back({candidates[i], scores[i]});
  }
  SelectTopNInPlace(&scored, n);
  out->assign(scored.begin(), scored.end());
}

std::vector<Recommendation> TopNRecommendations(
    const BlockScoreFn& score, int64_t user,
    std::span<const int64_t> candidates_in, int64_t n) {
  // Dedupe, first occurrence wins: a duplicated candidate must not be
  // scored twice nor hold two ranks. The common case (no duplicates) pays
  // one hash-set pass over the span and no copy of the id list.
  std::unordered_set<int64_t> seen;
  seen.reserve(candidates_in.size() * 2);
  bool unique = true;
  for (const int64_t id : candidates_in) {
    if (!seen.insert(id).second) {
      unique = false;
      break;
    }
  }
  std::vector<int64_t> deduped;
  if (!unique) {
    deduped.reserve(seen.size());
    seen.clear();
    for (const int64_t id : candidates_in) {
      if (seen.insert(id).second) deduped.push_back(id);
    }
  }
  std::vector<Recommendation> out;
  ScoreAndSelectTopN(
      score, user, unique ? candidates_in : std::span<const int64_t>(deduped),
      n, &out);
  return out;
}

std::vector<Recommendation> TopNRecommendations(
    const BlockScoreFn& score, const UserItemGraph& train_graph, int64_t user,
    int64_t n) {
  SCENEREC_TRACE_SPAN_F("serve/topn", "serve", trace::Floor::kNone,
                        "user=%lld n=%lld", static_cast<long long>(user),
                        static_cast<long long>(n));
  // Candidate ids are unique by construction — no dedupe pass needed.
  std::vector<Recommendation> out;
  ScoreAndSelectTopN(score, user, UninteractedItems(train_graph, user), n,
                     &out);
  return out;
}

}  // namespace scenerec
