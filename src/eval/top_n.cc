#include "eval/top_n.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SCENEREC_TOP_K_SSE2 1
#include <emmintrin.h>
#endif

namespace scenerec {

namespace {

// Serving telemetry (docs/observability.md): request rate and candidate
// throughput of the Top-N path.
const telemetry::Counter t_requests =
    telemetry::RegisterCounter("serve/topn_requests");
const telemetry::Counter t_candidates =
    telemetry::RegisterCounter("serve/topn_candidates");
// Candidates whose score was NaN or ±inf when they reached selection; they
// rank after every finite score (see RanksBefore).
const telemetry::Counter t_nonfinite =
    telemetry::RegisterCounter("serve/nonfinite_scores");

}  // namespace

void TopK::Reset(int64_t k) {
  SCENEREC_CHECK_GT(k, 0);
  k_ = static_cast<size_t>(k);
  kept_.clear();
  kept_.reserve(2 * k_);
  full_ = false;
}

/// Keeps the best k entries. The k-th best's score becomes the threshold
/// only when it is finite: a non-finite k-th means fewer than k finite
/// scores were offered, and any finite score still beats it.
void TopK::Shrink() {
  const auto kth = kept_.begin() + static_cast<ptrdiff_t>(k_ - 1);
  std::nth_element(kept_.begin(), kth, kept_.end(), BetterRecommendation);
  if (std::isfinite(kth->score)) {
    threshold_ = kth->score;
    full_ = true;
  }
  kept_.resize(k_);
}

template <typename ItemOf>
void TopK::OfferRows(std::span<const float> scores, ItemOf item_of) {
  size_t r = 0;
  for (; r < scores.size() && !full_; ++r) Offer(item_of(r), scores[r]);
#if defined(SCENEREC_TOP_K_SSE2)
  // Full from here on: a row passes only when its score is >= the
  // threshold, and cmpge is false for NaN lanes, exactly as in Offer. This
  // loop runs once per scored row of every request, so skipping four rows
  // per compare is what keeps selection far below scoring.
  for (; r + 4 <= scores.size(); r += 4) {
    const __m128 v = _mm_loadu_ps(scores.data() + r);
    if (_mm_movemask_ps(_mm_cmpge_ps(v, _mm_set1_ps(threshold_))) == 0) {
      continue;
    }
    for (size_t j = r; j < r + 4; ++j) Offer(item_of(j), scores[j]);
  }
#endif
  for (; r < scores.size(); ++r) Offer(item_of(r), scores[r]);
}

void TopK::OfferBlock(std::span<const int64_t> items,
                      std::span<const float> scores) {
  SCENEREC_CHECK_EQ(items.size(), scores.size());
  OfferRows(scores, [items](size_t r) { return items[r]; });
}

void TopK::OfferBlock(int64_t first_item, std::span<const float> scores) {
  OfferRows(scores, [first_item](size_t r) {
    return first_item + static_cast<int64_t>(r);
  });
}

void TopK::Absorb(const TopK& other) {
  for (const Recommendation& r : other.kept_) Offer(r.item, r.score);
}

void TopK::Take(std::vector<Recommendation>* out) {
  if (kept_.size() > k_) Shrink();
  std::sort(kept_.begin(), kept_.end(), BetterRecommendation);
  out->assign(kept_.begin(), kept_.end());
}

void SelectTopNInPlace(std::vector<Recommendation>* scored, int64_t n) {
  SCENEREC_CHECK(scored != nullptr);
  if (n <= 0 || scored->empty()) {
    scored->clear();
    return;
  }
  TopK top(std::min<int64_t>(n, static_cast<int64_t>(scored->size())));
  size_t nonfinite = 0;
  for (const Recommendation& r : *scored) {
    nonfinite += std::isfinite(r.score) ? 0 : 1;
    top.Offer(r.item, r.score);
  }
  if (nonfinite > 0) t_nonfinite.Add(nonfinite);
  top.Take(scored);
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

  // Per-thread scratch, so that a steady-state call allocates only the
  // winners in `*out`: parallel evaluation and the daemon call this from
  // several threads.
  thread_local std::vector<float> block_scores(
      static_cast<size_t>(kScoreBlockSize));
  thread_local TopK top;
  top.Reset(std::min<int64_t>(n, static_cast<int64_t>(candidates.size())));
  size_t nonfinite = 0;
  for (size_t offset = 0; offset < candidates.size();
       offset += static_cast<size_t>(kScoreBlockSize)) {
    const size_t len = std::min(static_cast<size_t>(kScoreBlockSize),
                                candidates.size() - offset);
    const std::span<const int64_t> items = candidates.subspan(offset, len);
    const std::span<float> scores(block_scores.data(), len);
    {
      SCENEREC_TRACE_SPAN_F("serve/score_block", "serve", trace::Floor::kOp,
                            "user=%lld candidates=%zu",
                            static_cast<long long>(user), len);
      score(user, items, scores);
    }
    for (const float s : scores) nonfinite += std::isfinite(s) ? 0 : 1;
    top.OfferBlock(items, scores);
  }
  if (nonfinite > 0) t_nonfinite.Add(nonfinite);
  top.Take(out);
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
