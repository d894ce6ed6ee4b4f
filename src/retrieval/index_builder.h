#ifndef SCENEREC_RETRIEVAL_INDEX_BUILDER_H_
#define SCENEREC_RETRIEVAL_INDEX_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status_or.h"
#include "models/factory.h"
#include "models/recommender.h"
#include "retrieval/item_index.h"

namespace scenerec {

/// Builds an ItemIndex from a model's exported retrieval embeddings — the
/// bridge between models/ and retrieval/. Construction is deterministic
/// given (embeddings, config), which is what makes the live-model and
/// from-snapshot routes below produce identical structures.
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexBuildConfig config = {}) : config_(config) {}

  /// From a live model. The model's eval representations are used as-is
  /// (lazily computed if cold); call OnEvalBegin first if parameters
  /// changed since the last eval sweep. FailedPrecondition for models
  /// without retrieval-embedding support (NCF, CMN and PinSAGE score
  /// through structures no inner product represents).
  StatusOr<std::unique_ptr<ItemIndex>> Build(Recommender& model) const;

  /// From an already-exported matrix (snapshot_inspect --export-index and
  /// the route Build() itself takes).
  StatusOr<std::unique_ptr<ItemIndex>> BuildFromEmbeddings(
      RetrievalEmbeddings embeddings) const;

  /// From an SRSNAP1 snapshot: opens the model zero-copy
  /// (OpenRecommenderFromSnapshot — parameters stay mmap'd; a raw-table
  /// export like BPR-MF's aliases the mapped pages without materializing a
  /// copy) and builds from its export. `model_out`, when non-null, receives
  /// the opened model — two-stage serving needs it for exact rescoring.
  StatusOr<std::unique_ptr<ItemIndex>> BuildFromSnapshot(
      const std::string& path, const ModelContext& context,
      const ModelFactoryConfig& factory_config,
      std::unique_ptr<Recommender>* model_out = nullptr) const;

  const IndexBuildConfig& config() const { return config_; }

 private:
  IndexBuildConfig config_;
};

}  // namespace scenerec

#endif  // SCENEREC_RETRIEVAL_INDEX_BUILDER_H_
