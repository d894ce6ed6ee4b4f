#include "retrieval/two_stage.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace scenerec {

namespace {
// Retrieval telemetry (docs/observability.md): probe volume and candidate
// throughput of the two-stage path.
const telemetry::Counter t_queries =
    telemetry::RegisterCounter("retrieval/queries");
const telemetry::Counter t_probes =
    telemetry::RegisterCounter("retrieval/probes");
const telemetry::Counter t_candidates =
    telemetry::RegisterCounter("retrieval/candidates");
}  // namespace

std::vector<std::vector<int64_t>> RetrieveCandidatesBatch(
    Recommender& model, const ItemIndex& index,
    const UserItemGraph& train_graph, std::span<const int64_t> users,
    int64_t num_candidates, std::vector<SearchStats>* stats) {
  SCENEREC_CHECK_GT(num_candidates, 0);
  const int64_t nq = static_cast<int64_t>(users.size());
  if (nq == 0) return {};
  t_queries.Add(static_cast<uint64_t>(nq));

  // Over-fetch by the user's training degree so that masking interacted
  // items below cannot eat into the candidate budget.
  const int64_t dim = index.dim();
  std::vector<float> queries(static_cast<size_t>(nq * dim));
  std::vector<int64_t> fetches(static_cast<size_t>(nq));
  for (int64_t q = 0; q < nq; ++q) {
    const int64_t user = users[static_cast<size_t>(q)];
    SCENEREC_CHECK(user >= 0 && user < train_graph.num_users());
    model.WriteRetrievalQuery(
        user, std::span<float>(queries.data() + q * dim,
                               static_cast<size_t>(dim)));
    fetches[static_cast<size_t>(q)] =
        std::min(num_candidates + train_graph.UserDegree(user),
                 index.num_items());
  }
  std::vector<std::vector<Recommendation>> retrieved;
  std::vector<SearchStats> local_stats;
  if (stats == nullptr) stats = &local_stats;
  index.MultiSearch(queries, fetches, &retrieved, stats);

  std::vector<std::vector<int64_t>> ids(static_cast<size_t>(nq));
  for (size_t q = 0; q < ids.size(); ++q) {
    // `retrieved[q]` is in serving order, so truncation keeps the best
    // survivors.
    std::vector<int64_t>& kept = ids[q];
    kept.reserve(static_cast<size_t>(num_candidates));
    for (const Recommendation& c : retrieved[q]) {
      if (static_cast<int64_t>(kept.size()) >= num_candidates) break;
      if (train_graph.HasInteraction(users[q], c.item)) continue;
      kept.push_back(c.item);
    }
    t_probes.Add(static_cast<uint64_t>((*stats)[q].lists_probed));
    t_candidates.Add(kept.size());
    (*stats)[q].rescored = static_cast<int64_t>(kept.size());
  }
  return ids;
}

std::vector<Recommendation> TwoStageTopN(Recommender& model,
                                         const ItemIndex& index,
                                         const UserItemGraph& train_graph,
                                         int64_t user, int64_t n,
                                         int64_t num_candidates,
                                         SearchStats* stats) {
  SCENEREC_TRACE_SPAN_F("retrieval/two_stage", "retrieval",
                        trace::Floor::kNone,
                        "user=%lld n=%lld candidates=%lld",
                        static_cast<long long>(user),
                        static_cast<long long>(n),
                        static_cast<long long>(num_candidates));
  // Stage 1: candidate generation, a batch of one.
  std::vector<SearchStats> batch_stats;
  const std::vector<std::vector<int64_t>> ids = RetrieveCandidatesBatch(
      model, index, train_graph, std::span<const int64_t>(&user, 1),
      num_candidates, &batch_stats);
  if (stats != nullptr) *stats = batch_stats[0];

  // Stage 2: exact rerank of the (unique) candidates.
  std::vector<Recommendation> out;
  ScoreAndSelectTopN(model.BlockScorer(), user, ids[0], n, &out);
  return out;
}

double RetrievalRecallAtK(Recommender& model, const ItemIndex& index,
                          const ItemIndex& exact, int64_t k,
                          std::span<const int64_t> users) {
  SCENEREC_CHECK_GT(k, 0);
  SCENEREC_CHECK(!users.empty());
  SCENEREC_CHECK_EQ(index.dim(), exact.dim());
  double total = 0.0;
  int64_t counted = 0;
  std::vector<float> query(static_cast<size_t>(index.dim()));
  std::vector<Recommendation> truth;
  std::vector<Recommendation> got;
  for (const int64_t user : users) {
    model.WriteRetrievalQuery(user, query);
    exact.Search(query, k, &truth);
    if (truth.empty()) continue;
    index.Search(query, k, &got);
    std::unordered_set<int64_t> got_set;
    got_set.reserve(got.size() * 2);
    for (const Recommendation& c : got) got_set.insert(c.item);
    int64_t hits = 0;
    for (const Recommendation& c : truth) {
      hits += got_set.count(c.item) != 0 ? 1 : 0;
    }
    total += static_cast<double>(hits) / static_cast<double>(truth.size());
    counted += 1;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace scenerec
