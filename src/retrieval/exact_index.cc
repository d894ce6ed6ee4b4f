#include "retrieval/exact_index.h"

#include <algorithm>
#include <cmath>
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
/// thread being one of them. A publish warms the next model on the default
/// pool's lanes, which share the cores with these while it runs
/// (docs/parallelism.md). Built on first use and never resized or
/// destroyed, so every MultiSearch in the process (the daemon's admission
/// thread, benchmarks, tests) sweeps with the same lanes. On a 1-CPU host
/// it has no workers and every sweep runs inline.
ThreadPool& SweepPool() {
  static ThreadPool* const pool = new ThreadPool(
      std::max<int64_t>(1, ThreadPool::HardwareConcurrency() - 1));
  return *pool;
}

/// Bounded top-k selection. Offered candidates collect in a buffer of at
/// most 2k entries; whenever it fills, one nth_element keeps its best k
/// and, once their worst score is finite, it becomes the threshold below
/// which later offers are dropped unseen. Take() returns exactly what
/// SelectTopK over the fully materialized candidate list would:
/// BetterCandidate is a strict TOTAL order (finite scores desc, lower id
/// wins ties, non-finite scores last), so the sorted top-k is unique — any
/// selection algorithm must produce it — and a candidate scoring strictly
/// below k kept finite ones can never be in it. The win is cost:
/// a steady-state Offer is one compare against the threshold, a kept one
/// a push_back plus an amortized O(1) share of the selection, so the scan
/// itself stays the dominant term.
class BoundedTopK {
 public:
  explicit BoundedTopK(int64_t k) : k_(static_cast<size_t>(k)) {
    kept_.reserve(2 * k_);
  }

  void Offer(int64_t item, float score) {
    // Strictly below the finite threshold, NaN or -inf: k kept finite
    // candidates beat it. (+inf passes and the next Shrink drops it.)
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
  /// Keeps the best k candidates. The k-th best's score becomes the
  /// threshold only when it is finite: a non-finite k-th means fewer than k
  /// finite scores were offered, and any finite score still beats it.
  void Shrink() {
    const auto kth = kept_.begin() + static_cast<ptrdiff_t>(k_ - 1);
    std::nth_element(kept_.begin(), kth, kept_.end(), BetterCandidate);
    if (std::isfinite(kth->score)) {
      threshold_ = kth->score;
      full_ = true;
    }
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
      // ranks a NaN score after every kept finite candidate).
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

ExactIndex::ExactIndex(RetrievalEmbeddings embeddings)
    : emb_(std::move(embeddings)) {
  SCENEREC_CHECK(emb_.items != nullptr || emb_.num_items == 0);
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
  BoundedTopK top(std::min(k, emb_.num_items));
  for (int64_t r0 = 0; r0 < emb_.num_items; r0 += kScanTile) {
    const int64_t rows = std::min(kScanTile, emb_.num_items - r0);
    kernels::Gemv(emb_.items + r0 * emb_.dim, rows, emb_.dim, query.data(),
                  scores.data());
    OfferRows(scores.data(), emb_.bias, r0, rows, &top);
  }
  top.Take(out);
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
  if (stats != nullptr) {
    for (SearchStats& s : *stats) {
      s.lists_probed = 1;
      s.items_scanned = emb_.num_items;
    }
  }

  // The shared sweep: each item tile is scored for EVERY query before the
  // scan moves on, so the matrix streams through cache once per batch
  // rather than once per query. Scores per (row, query) are bitwise the
  // single-query scan's (GemvMulti rows are fixed-order Dot).
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
      tops.emplace_back(std::min(ks[q], emb_.num_items));
    }
    const int64_t tile_begin = chunk * num_tiles / num_chunks;
    const int64_t tile_end = (chunk + 1) * num_tiles / num_chunks;
    std::vector<float> scores(
        static_cast<size_t>(nq * std::min(kScanTile, emb_.num_items)));
    for (int64_t t = tile_begin; t < tile_end; ++t) {
      const int64_t r0 = t * kScanTile;
      const int64_t rows = std::min(kScanTile, emb_.num_items - r0);
      kernels::GemvMulti(emb_.items + r0 * emb_.dim, rows, emb_.dim,
                         queries.data(), nq, scores.data());
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
    top.Take(&(*outs)[static_cast<size_t>(q)]);
  }
}

}  // namespace scenerec
