#include "retrieval/exact_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SCENEREC_EXACT_INDEX_SSE2 1
#include <emmintrin.h>
#endif

namespace scenerec {

namespace {
// Rows scored per Gemv/GemvMulti call: bounds the scratch buffer while
// keeping calls long enough to amortize the dispatch and trace overhead,
// and small enough that MultiSearch's chunks of whole tiles split a
// 32k-item catalog evenly across the sweep lanes.
constexpr int64_t kScanTile = 1024;

// Fewest tiles one MultiSearch chunk holds, so a catalog of fewer than
// twice this many tiles is swept on the calling thread: a chunk must
// outweigh the cost of waking a lane and merging its survivors.
constexpr int64_t kFanOutGrainTiles = 2;

/// The exact sweep's pool: HardwareConcurrency() - 1 lanes, the calling
/// thread being one of them, so one core stays free for the thread that
/// opens, indexes and publishes the next snapshot. Built on first use and
/// never resized or destroyed, so every MultiSearch in the process (the
/// daemon's admission thread, benchmarks, tests) sweeps with the same
/// lanes. On a 1-CPU host it has no workers and every sweep runs inline.
ThreadPool& SweepPool() {
  static ThreadPool* const pool = new ThreadPool(
      std::max<int64_t>(1, ThreadPool::HardwareConcurrency() - 1));
  return *pool;
}

/// Bounded top-k selection. Offered candidates collect in a buffer of at
/// most 2k entries; whenever it fills, one nth_element keeps its best k
/// and their worst score becomes the threshold, below which later offers
/// are dropped unseen. Take() returns exactly what SelectTopK over the
/// fully materialized candidate list would: BetterCandidate is a strict
/// TOTAL order (score desc, lower id wins ties), so the sorted top-k is
/// unique — any selection algorithm must produce it — and a candidate
/// scoring strictly below k kept ones can never be in it. The win is cost:
/// a steady-state Offer is one compare against the threshold, a kept one
/// a push_back plus an amortized O(1) share of the selection, so the scan
/// itself stays the dominant term.
class BoundedTopK {
 public:
  explicit BoundedTopK(int64_t k) : k_(static_cast<size_t>(k)) {
    kept_.reserve(2 * k_);
  }

  void Offer(int64_t item, float score) {
    // Strictly below the threshold (or NaN): k kept candidates beat it.
    if (full_ && !(score >= threshold_)) return;
    kept_.push_back({item, score});
    if (kept_.size() == 2 * k_) Shrink();
  }

  /// Offers every candidate `other` kept. Top-k under a strict total order
  /// is unique and each chunk's kept set holds every member of the overall
  /// top-k that lies in its rows, so absorbing the chunks' sets leaves
  /// exactly the top-k one serial scan over all rows would.
  void Absorb(const BoundedTopK& other) {
    for (const RetrievalCandidate& c : other.kept_) Offer(c.item, c.score);
  }

  /// Moves out the kept candidates, best first (SelectTopK's order).
  void Take(std::vector<RetrievalCandidate>* out) {
    if (kept_.size() > k_) Shrink();
    std::sort(kept_.begin(), kept_.end(), BetterCandidate);
    *out = std::move(kept_);
  }

  bool full() const { return full_; }
  float worst_score() const { return threshold_; }

 private:
  /// Keeps the best k candidates; the k-th best's score is the threshold.
  void Shrink() {
    const auto kth = kept_.begin() + static_cast<ptrdiff_t>(k_ - 1);
    std::nth_element(kept_.begin(), kth, kept_.end(), BetterCandidate);
    threshold_ = kth->score;
    full_ = true;
    kept_.resize(k_);
  }

  size_t k_;
  std::vector<RetrievalCandidate> kept_;
  bool full_ = false;
  float threshold_ = 0.0f;
};

/// Feeds a tile of scan scores (item `base + r` scores `scores[r]`, plus
/// `bias` when the index has one) into `top`. Semantically this is Offer
/// per row; the fast path only skips rows a full top-k would reject anyway
/// (score strictly below the threshold — such a row loses the
/// BetterCandidate comparison to k kept rows whatever its id), so the kept
/// set is identical to offering every row. On x86-64 the threshold test
/// runs four rows at a time: one SSE2 compare+movemask discards the
/// typical block without touching the top-k, which matters because this
/// loop runs num_items times per query and is NOT amortized by batching.
void OfferRows(const float* SCENEREC_RESTRICT scores,
               const float* SCENEREC_RESTRICT bias, int64_t base,
               int64_t rows, BoundedTopK* top) {
  int64_t r = 0;
#if defined(SCENEREC_EXACT_INDEX_SSE2)
  if (top->full()) {
    for (; r + 4 <= rows; r += 4) {
      __m128 v = _mm_loadu_ps(scores + r);
      // Per-lane IEEE add — bitwise the scalar `score + bias` below.
      if (bias != nullptr) v = _mm_add_ps(v, _mm_loadu_ps(bias + base + r));
      const __m128 t = _mm_set1_ps(top->worst_score());
      // cmpge is false for NaN lanes, matching Offer (BetterCandidate
      // never ranks a NaN score above the worst kept candidate).
      if (_mm_movemask_ps(_mm_cmpge_ps(v, t)) == 0) continue;
      alignas(16) float s4[4];
      _mm_store_ps(s4, v);
      for (int64_t j = 0; j < 4; ++j) top->Offer(base + r + j, s4[j]);
    }
  }
#endif
  for (; r < rows; ++r) {
    float s = scores[r];
    if (bias != nullptr) s += bias[base + r];
    top->Offer(base + r, s);
  }
}

}  // namespace

ExactIndex::ExactIndex(RetrievalEmbeddings embeddings, Options options)
    : emb_(std::move(embeddings)), opt_(options) {
  SCENEREC_CHECK(emb_.items != nullptr || emb_.num_items == 0);
  SCENEREC_CHECK_GT(opt_.rescore_factor, 0);
  if (opt_.quantize_int8) {
    sq8_ = Sq8Matrix(emb_.items, emb_.num_items, emb_.dim);
  }
}

void ExactIndex::Search(std::span<const float> query, int64_t k,
                        std::vector<RetrievalCandidate>* out,
                        SearchStats* stats) const {
  SCENEREC_CHECK_EQ(static_cast<int64_t>(query.size()), emb_.dim);
  SCENEREC_CHECK_GT(k, 0);
  SCENEREC_TRACE_SPAN_F("retrieval/search", "retrieval", trace::Floor::kNone,
                        "backend=%s k=%lld", name().c_str(),
                        static_cast<long long>(k));
  out->clear();
  if (stats != nullptr) *stats = SearchStats{};
  if (emb_.num_items == 0) return;
  if (stats != nullptr) {
    stats->lists_probed = 1;
    stats->items_scanned = emb_.num_items;
  }

  std::vector<float> scores(static_cast<size_t>(
      std::min(kScanTile, emb_.num_items)));
  const bool int8_scan = opt_.quantize_int8;
  // Int8 keeps a k * rescore_factor survivor margin for the float rescore
  // below; either way at most num_items candidates exist.
  const int64_t keep = std::min(
      int8_scan ? k * opt_.rescore_factor : k, emb_.num_items);
  BoundedTopK top(keep);
  Sq8Matrix::EncodedQuery eq;
  if (int8_scan) eq = sq8_.EncodeQuery(query);
  for (int64_t r0 = 0; r0 < emb_.num_items; r0 += kScanTile) {
    const int64_t rows = std::min(kScanTile, emb_.num_items - r0);
    if (int8_scan) {
      sq8_.ScoreRows(eq, r0, rows, scores.data());
    } else {
      kernels::Gemv(emb_.items + r0 * emb_.dim, rows, emb_.dim, query.data(),
                    scores.data());
    }
    OfferRows(scores.data(), emb_.bias, r0, rows, &top);
  }
  top.Take(out);
  if (!int8_scan) return;

  // Int8 path: restore exact (float) scores by rescoring just the
  // survivors — kernels::Dot per row, the same kernel the float scan's
  // Gemv uses, so rescored scores are bitwise float-scan scores.
  for (RetrievalCandidate& c : *out) {
    float s = kernels::Dot(query.data(), emb_.items + c.item * emb_.dim,
                           emb_.dim);
    if (emb_.bias != nullptr) s += emb_.bias[c.item];
    c.score = s;
  }
  if (stats != nullptr) stats->rescored = static_cast<int64_t>(out->size());
  SelectTopK(out, k);
}

void ExactIndex::MultiSearch(std::span<const float> queries,
                             std::span<const int64_t> ks,
                             std::vector<std::vector<RetrievalCandidate>>* outs,
                             std::vector<SearchStats>* stats) const {
  const int64_t nq = static_cast<int64_t>(ks.size());
  SCENEREC_CHECK_EQ(static_cast<int64_t>(queries.size()), nq * emb_.dim);
  SCENEREC_TRACE_SPAN_F("retrieval/multi_search", "retrieval",
                        trace::Floor::kNone, "backend=%s nq=%lld",
                        name().c_str(), static_cast<long long>(nq));
  outs->resize(static_cast<size_t>(nq));
  if (stats != nullptr) stats->assign(static_cast<size_t>(nq), SearchStats{});
  for (int64_t q = 0; q < nq; ++q) {
    SCENEREC_CHECK_GT(ks[q], 0);
    (*outs)[static_cast<size_t>(q)].clear();
  }
  if (emb_.num_items == 0 || nq == 0) return;
  const bool int8_scan = opt_.quantize_int8;
  std::vector<int64_t> keeps(static_cast<size_t>(nq));
  for (int64_t q = 0; q < nq; ++q) {
    if (stats != nullptr) {
      (*stats)[static_cast<size_t>(q)].lists_probed = 1;
      (*stats)[static_cast<size_t>(q)].items_scanned = emb_.num_items;
    }
    keeps[static_cast<size_t>(q)] = std::min(
        int8_scan ? ks[q] * opt_.rescore_factor : ks[q], emb_.num_items);
  }

  std::vector<Sq8Matrix::EncodedQuery> eqs;
  if (int8_scan) {
    eqs.reserve(static_cast<size_t>(nq));
    for (int64_t q = 0; q < nq; ++q) {
      eqs.push_back(sq8_.EncodeQuery(
          queries.subspan(static_cast<size_t>(q * emb_.dim),
                          static_cast<size_t>(emb_.dim))));
    }
  }

  // The shared sweep: each item tile is scored for EVERY query before the
  // scan moves on, so the matrix streams through cache once per batch
  // rather than once per query. Scores per (row, query) are bitwise the
  // single-query scan's (GemvMulti rows are fixed-order Dot; the int8
  // kernels are integer and order-free).
  //
  // The tiles split into contiguous chunks across the sweep pool's lanes.
  // Each chunk keeps its own bounded top-k per query, and after the join
  // each query's chunk survivors are absorbed in chunk order into the
  // first chunk's — exactly the serial top-k (BoundedTopK::Absorb), so
  // everything per query stays verbatim Search whatever the lane count.
  ThreadPool& pool = SweepPool();
  const int64_t num_tiles = (emb_.num_items + kScanTile - 1) / kScanTile;
  const int64_t num_chunks = std::clamp<int64_t>(
      num_tiles / kFanOutGrainTiles, 1, pool.num_threads());
  std::vector<std::vector<BoundedTopK>> chunk_tops(
      static_cast<size_t>(num_chunks));
  const auto sweep_chunk = [&](int64_t chunk) {
    std::vector<BoundedTopK>& tops = chunk_tops[static_cast<size_t>(chunk)];
    tops.reserve(static_cast<size_t>(nq));
    for (int64_t q = 0; q < nq; ++q) {
      tops.emplace_back(keeps[static_cast<size_t>(q)]);
    }
    const int64_t tile_begin = chunk * num_tiles / num_chunks;
    const int64_t tile_end = (chunk + 1) * num_tiles / num_chunks;
    std::vector<float> scores(
        static_cast<size_t>(nq * std::min(kScanTile, emb_.num_items)));
    for (int64_t t = tile_begin; t < tile_end; ++t) {
      const int64_t r0 = t * kScanTile;
      const int64_t rows = std::min(kScanTile, emb_.num_items - r0);
      if (int8_scan) {
        for (int64_t q = 0; q < nq; ++q) {
          sq8_.ScoreRows(eqs[static_cast<size_t>(q)], r0, rows,
                         scores.data() + q * rows);
        }
      } else {
        kernels::GemvMulti(emb_.items + r0 * emb_.dim, rows, emb_.dim,
                           queries.data(), nq, scores.data());
      }
      for (int64_t q = 0; q < nq; ++q) {
        OfferRows(scores.data() + q * rows, emb_.bias, r0, rows,
                  &tops[static_cast<size_t>(q)]);
      }
    }
  };
  pool.ParallelFor(num_chunks, 1, [&](int64_t begin, int64_t end) {
    for (int64_t chunk = begin; chunk < end; ++chunk) sweep_chunk(chunk);
  });

  for (int64_t q = 0; q < nq; ++q) {
    BoundedTopK& top = chunk_tops[0][static_cast<size_t>(q)];
    for (int64_t chunk = 1; chunk < num_chunks; ++chunk) {
      top.Absorb(chunk_tops[static_cast<size_t>(chunk)][static_cast<size_t>(q)]);
    }
    std::vector<RetrievalCandidate>& out = (*outs)[static_cast<size_t>(q)];
    top.Take(&out);
    if (!int8_scan) continue;
    const float* query = queries.data() + q * emb_.dim;
    for (RetrievalCandidate& c : out) {
      float s = kernels::Dot(query, emb_.items + c.item * emb_.dim, emb_.dim);
      if (emb_.bias != nullptr) s += emb_.bias[c.item];
      c.score = s;
    }
    if (stats != nullptr) {
      (*stats)[static_cast<size_t>(q)].rescored =
          static_cast<int64_t>(out.size());
    }
    SelectTopK(&out, ks[q]);
  }
}

}  // namespace scenerec
