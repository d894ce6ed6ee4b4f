#include "retrieval/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/trace.h"
#include "tensor/kernels.h"

namespace scenerec {

namespace {

/// Lloyd iterations of the coarse quantizer's k-means.
constexpr int64_t kKmeansIterations = 8;
/// Seed of the k-means initialization, the build's only randomness.
constexpr uint64_t kKmeansSeed = 42;

/// L2 assignment of one item over all centroids, phrased as
/// argmax(x . c_l - 0.5||c_l||^2): `cdots` holds the Gemv of centroids
/// against x, `half_norms` the 0.5||c||^2 terms. Lower list id wins ties so
/// assignment is a deterministic function of the inputs.
int64_t AssignList(const float* cdots, const float* half_norms,
                   int64_t nlist) {
  int64_t best = 0;
  float best_score = cdots[0] - half_norms[0];
  for (int64_t l = 1; l < nlist; ++l) {
    const float s = cdots[l] - half_norms[l];
    if (s > best_score) {
      best = l;
      best_score = s;
    }
  }
  return best;
}

}  // namespace

IvfIndex::IvfIndex(RetrievalEmbeddings embeddings,
                   const IndexBuildConfig& config)
    : emb_(std::move(embeddings)) {
  SCENEREC_CHECK(emb_.items != nullptr || emb_.num_items == 0);
  if (config.nlist > 0) {
    nlist_ = std::min(config.nlist, std::max<int64_t>(emb_.num_items, 1));
  } else {
    nlist_ = std::clamp<int64_t>(
        static_cast<int64_t>(std::llround(std::sqrt(
            static_cast<double>(std::max<int64_t>(emb_.num_items, 1))))),
        1, std::max<int64_t>(emb_.num_items, 1));
  }
  nprobe_ = std::clamp<int64_t>(config.nprobe, 1, nlist_);
  BuildCoarseQuantizer();
}

void IvfIndex::BuildCoarseQuantizer() {
  const int64_t n = emb_.num_items;
  const int64_t d = emb_.dim;
  centroids_.assign(static_cast<size_t>(nlist_ * d), 0.0f);
  list_offsets_.assign(static_cast<size_t>(nlist_) + 1, 0);
  list_items_.clear();
  if (n == 0) return;

  // A row holding a NaN or ±inf element neither seeds a centroid nor enters
  // a centroid's mean: it would make that centroid non-finite, and no
  // assignment beats a NaN best score, so every item would pile into one
  // list. The row still joins a list, so Search can return it, ranked last.
  std::vector<bool> finite(static_cast<size_t>(n));
  std::vector<int64_t> perm;  // the finite rows, ascending
  perm.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* x = emb_.items + i * d;
    finite[static_cast<size_t>(i)] =
        std::all_of(x, x + d, [](float v) { return std::isfinite(v); });
    if (finite[static_cast<size_t>(i)]) perm.push_back(i);
  }

  // Seeded partial Fisher-Yates picks nlist distinct finite seed rows — the
  // only randomness in the build, so (embeddings, nlist) fully determine
  // the structure. With fewer finite rows than lists, the remaining
  // centroids stay at the origin.
  Rng rng(kKmeansSeed);
  const int64_t num_finite = static_cast<int64_t>(perm.size());
  for (int64_t i = 0; i < std::min(nlist_, num_finite); ++i) {
    const int64_t j = i + static_cast<int64_t>(rng.NextInt(
                              static_cast<uint64_t>(num_finite - i)));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
    std::copy(emb_.items + perm[static_cast<size_t>(i)] * d,
              emb_.items + (perm[static_cast<size_t>(i)] + 1) * d,
              centroids_.data() + i * d);
  }

  std::vector<int64_t> assignment(static_cast<size_t>(n), 0);
  std::vector<float> half_norms(static_cast<size_t>(nlist_));
  std::vector<float> cdots(static_cast<size_t>(nlist_));
  std::vector<int64_t> counts(static_cast<size_t>(nlist_));
  std::vector<float> sums(static_cast<size_t>(nlist_ * d));
  for (int64_t it = 0; it < kKmeansIterations; ++it) {
    for (int64_t l = 0; l < nlist_; ++l) {
      const float* c = centroids_.data() + l * d;
      half_norms[static_cast<size_t>(l)] = 0.5f * kernels::Dot(c, c, d);
    }
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(sums.begin(), sums.end(), 0.0f);
    for (int64_t i = 0; i < n; ++i) {
      const float* x = emb_.items + i * d;
      kernels::Gemv(centroids_.data(), nlist_, d, x, cdots.data());
      const int64_t l = AssignList(cdots.data(), half_norms.data(), nlist_);
      assignment[static_cast<size_t>(i)] = l;
      if (!finite[static_cast<size_t>(i)]) continue;
      counts[static_cast<size_t>(l)] += 1;
      kernels::Axpy(1.0f, x, sums.data() + l * d, d);
    }
    for (int64_t l = 0; l < nlist_; ++l) {
      // Lists that lost all members keep their previous centroid; they can
      // win items back in a later iteration or end up empty (harmless: an
      // empty probed list just contributes nothing).
      if (counts[static_cast<size_t>(l)] == 0) continue;
      const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(l)]);
      float* c = centroids_.data() + l * d;
      const float* s = sums.data() + l * d;
      for (int64_t j = 0; j < d; ++j) c[j] = s[j] * inv;
    }
  }

  // Inverted lists from the final assignment; ascending item id within each
  // list because items are appended in id order.
  for (int64_t i = 0; i < n; ++i) {
    list_offsets_[static_cast<size_t>(assignment[static_cast<size_t>(i)]) + 1]++;
  }
  for (int64_t l = 0; l < nlist_; ++l) {
    list_offsets_[static_cast<size_t>(l) + 1] +=
        list_offsets_[static_cast<size_t>(l)];
  }
  list_items_.resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t l = assignment[static_cast<size_t>(i)];
    list_items_[static_cast<size_t>(cursor[static_cast<size_t>(l)]++)] = i;
  }
}

void IvfIndex::Search(std::span<const float> query, int64_t k,
                      std::vector<Recommendation>* out,
                      SearchStats* stats) const {
  SCENEREC_CHECK_EQ(static_cast<int64_t>(query.size()), emb_.dim);
  SCENEREC_CHECK_GT(k, 0);
  SCENEREC_TRACE_SPAN_F("retrieval/search", "retrieval", trace::Floor::kNone,
                        "backend=%s k=%lld nprobe=%lld", name().c_str(),
                        static_cast<long long>(k),
                        static_cast<long long>(nprobe_));
  out->clear();
  if (stats != nullptr) *stats = SearchStats{};
  if (emb_.num_items == 0) return;

  // Rank lists by query . centroid (the MIP surrogate; the order of
  // RanksBefore makes the probe set deterministic under centroid-score
  // ties).
  std::vector<float> cscores(static_cast<size_t>(nlist_));
  kernels::Gemv(centroids_.data(), nlist_, emb_.dim, query.data(),
                cscores.data());
  TopK probe_top(nprobe_);
  probe_top.OfferBlock(0, cscores);
  std::vector<Recommendation> probe;
  probe_top.Take(&probe);

  TopK top(std::min(k, emb_.num_items));
  for (const Recommendation& p : probe) {
    const int64_t l = p.item;
    const int64_t begin = list_offsets_[static_cast<size_t>(l)];
    const int64_t end = list_offsets_[static_cast<size_t>(l) + 1];
    for (int64_t c = begin; c < end; ++c) {
      const int64_t item = list_items_[static_cast<size_t>(c)];
      float s = kernels::Dot(query.data(), emb_.items + item * emb_.dim,
                             emb_.dim);
      if (emb_.bias != nullptr) s += emb_.bias[item];
      top.Offer(item, s);
    }
    if (stats != nullptr) {
      stats->lists_probed += 1;
      stats->items_scanned += end - begin;
    }
  }
  top.Take(out);
}

}  // namespace scenerec
