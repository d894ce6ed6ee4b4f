#include "retrieval/exact_index.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels.h"

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

/// Adds the index's per-item bias, if any, to a tile of scan scores (item
/// `first_item + r` scores `scores[r]`) before the tile is offered to TopK.
void AddBias(const float* bias, int64_t first_item, std::span<float> scores) {
  if (bias == nullptr) return;
  const float* tile_bias = bias + first_item;
  for (size_t r = 0; r < scores.size(); ++r) scores[r] += tile_bias[r];
}

}  // namespace

ExactIndex::ExactIndex(RetrievalEmbeddings embeddings)
    : emb_(std::move(embeddings)) {
  SCENEREC_CHECK(emb_.items != nullptr || emb_.num_items == 0);
}

void ExactIndex::Search(std::span<const float> query, int64_t k,
                        std::vector<Recommendation>* out,
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
  TopK top(std::min(k, emb_.num_items));
  for (int64_t r0 = 0; r0 < emb_.num_items; r0 += kScanTile) {
    const int64_t rows = std::min(kScanTile, emb_.num_items - r0);
    kernels::Gemv(emb_.items + r0 * emb_.dim, rows, emb_.dim, query.data(),
                  scores.data());
    const std::span<float> tile(scores.data(), static_cast<size_t>(rows));
    AddBias(emb_.bias, r0, tile);
    top.OfferBlock(r0, tile);
  }
  top.Take(out);
}

void ExactIndex::MultiSearch(std::span<const float> queries,
                             std::span<const int64_t> ks,
                             std::vector<std::vector<Recommendation>>* outs,
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
  // Each chunk keeps its own TopK per query, and after the join
  // each query's chunk survivors are absorbed in chunk order into the
  // first chunk's — exactly the serial top-k (TopK::Absorb), so
  // everything per query stays verbatim Search whatever the lane count.
  ThreadPool& pool = SweepPool();
  const int64_t num_tiles = (emb_.num_items + kScanTile - 1) / kScanTile;
  const int64_t num_chunks = std::clamp<int64_t>(
      num_tiles / kFanOutGrainTiles, 1, pool.num_threads());
  std::vector<std::vector<TopK>> chunk_tops(static_cast<size_t>(num_chunks));
  const auto sweep_chunk = [&](int64_t chunk) {
    std::vector<TopK>& tops = chunk_tops[static_cast<size_t>(chunk)];
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
        const std::span<float> tile(scores.data() + q * rows,
                                    static_cast<size_t>(rows));
        AddBias(emb_.bias, r0, tile);
        tops[static_cast<size_t>(q)].OfferBlock(r0, tile);
      }
    }
  };
  pool.ParallelFor(num_chunks, 1, [&](int64_t begin, int64_t end) {
    for (int64_t chunk = begin; chunk < end; ++chunk) sweep_chunk(chunk);
  });

  for (int64_t q = 0; q < nq; ++q) {
    TopK& top = chunk_tops[0][static_cast<size_t>(q)];
    for (int64_t chunk = 1; chunk < num_chunks; ++chunk) {
      top.Absorb(chunk_tops[static_cast<size_t>(chunk)][static_cast<size_t>(q)]);
    }
    top.Take(&(*outs)[static_cast<size_t>(q)]);
  }
}

}  // namespace scenerec
