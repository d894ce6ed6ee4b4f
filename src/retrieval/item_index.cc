#include "retrieval/item_index.h"

#include <algorithm>

#include "common/check.h"

namespace scenerec {

void ItemIndex::MultiSearch(std::span<const float> queries,
                            std::span<const int64_t> ks,
                            std::vector<std::vector<RetrievalCandidate>>* outs,
                            std::vector<SearchStats>* stats) const {
  const size_t nq = ks.size();
  SCENEREC_CHECK_EQ(static_cast<int64_t>(queries.size()),
                    static_cast<int64_t>(nq) * dim());
  outs->resize(nq);
  if (stats != nullptr) stats->resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    Search(queries.subspan(q * static_cast<size_t>(dim()),
                           static_cast<size_t>(dim())),
           ks[q], &(*outs)[q], stats != nullptr ? &(*stats)[q] : nullptr);
  }
}

void SelectTopK(std::vector<RetrievalCandidate>* candidates, int64_t k) {
  const size_t keep =
      std::min(static_cast<size_t>(std::max<int64_t>(k, 0)), candidates->size());
  if (keep < candidates->size()) {
    std::nth_element(candidates->begin(),
                     candidates->begin() + static_cast<ptrdiff_t>(keep),
                     candidates->end(), BetterCandidate);
    candidates->resize(keep);
  }
  std::sort(candidates->begin(), candidates->end(), BetterCandidate);
}

}  // namespace scenerec
