#ifndef SCENEREC_RETRIEVAL_IVF_INDEX_H_
#define SCENEREC_RETRIEVAL_IVF_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "retrieval/item_index.h"

namespace scenerec {

/// IVF (inverted-file) index: a k-means coarse quantizer partitions the
/// items into `nlist` lists; a query scores only the members of its
/// `nprobe` closest lists instead of the whole catalog — the recall/latency
/// knob of two-stage serving (docs/retrieval.md). Construction is fully
/// deterministic (seeded initialization, fixed Lloyd iteration count,
/// ascending-id list order), so building from a live model and from an
/// mmap'd snapshot of the same parameters yields bit-identical structures
/// (tests/retrieval_test.cc compares them field by field).
///
/// List selection ranks centroids by query . centroid — the maximum-inner-
/// product surrogate for the L2 assignment used at build time.
class IvfIndex : public ItemIndex {
 public:
  struct Options {
    int64_t nlist = 0;   // 0 = clamp(sqrt(num_items), 1, num_items)
    int64_t nprobe = 8;  // lists scanned per query
    int64_t kmeans_iterations = 8;
    uint64_t seed = 42;  // coarse-quantizer initialization
  };

  IvfIndex(RetrievalEmbeddings embeddings, Options options);
  explicit IvfIndex(RetrievalEmbeddings embeddings)
      : IvfIndex(std::move(embeddings), Options{}) {}

  std::string name() const override { return "ivf"; }
  int64_t num_items() const override { return emb_.num_items; }
  int64_t dim() const override { return emb_.dim; }
  RetrievalFidelity fidelity() const override { return emb_.fidelity; }

  void Search(std::span<const float> query, int64_t k,
              std::vector<Recommendation>* out,
              SearchStats* stats = nullptr) const override;

  int64_t nlist() const { return nlist_; }
  int64_t nprobe() const { return opt_.nprobe; }
  /// Post-build recall/latency tuning; clamped to [1, nlist].
  void set_nprobe(int64_t nprobe);

  // -- Structure introspection (tests, snapshot_inspect) -----------------
  /// [nlist, dim] row-major k-means centroids.
  std::span<const float> centroids() const { return centroids_; }
  /// Items of list l are list_items()[list_offsets()[l] ..
  /// list_offsets()[l+1]), ascending ids. offsets has nlist+1 entries.
  std::span<const int64_t> list_offsets() const { return list_offsets_; }
  std::span<const int64_t> list_items() const { return list_items_; }

 private:
  void BuildCoarseQuantizer();

  RetrievalEmbeddings emb_;
  Options opt_;
  int64_t nlist_ = 0;
  std::vector<float> centroids_;      // [nlist, dim]
  std::vector<int64_t> list_offsets_; // [nlist + 1]
  std::vector<int64_t> list_items_;   // [num_items]
};

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_IVF_INDEX_H_
