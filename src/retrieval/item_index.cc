#include "retrieval/item_index.h"

#include "common/check.h"

namespace scenerec {

void ItemIndex::MultiSearch(std::span<const float> queries,
                            std::span<const int64_t> ks,
                            std::vector<std::vector<Recommendation>>* outs,
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

}  // namespace scenerec
