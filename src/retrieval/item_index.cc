#include "retrieval/item_index.h"

#include "common/check.h"
#include "common/status.h"

namespace scenerec {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kExact:
      return "exact";
    case IndexKind::kIvf:
      return "ivf";
  }
  return "unknown";
}

StatusOr<IndexKind> ParseIndexKind(const std::string& name) {
  if (name == "exact") return IndexKind::kExact;
  if (name == "ivf") return IndexKind::kIvf;
  return Status::InvalidArgument("unknown retrieval backend '" + name +
                                 "' (expected exact or ivf)");
}

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
