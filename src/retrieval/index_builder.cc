#include "retrieval/index_builder.h"

#include <utility>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "retrieval/exact_index.h"
#include "retrieval/ivf_index.h"

namespace scenerec {

namespace {
const telemetry::Counter t_builds =
    telemetry::RegisterCounter("retrieval/index_builds");
}  // namespace

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

StatusOr<std::unique_ptr<ItemIndex>> IndexBuilder::BuildFromEmbeddings(
    RetrievalEmbeddings embeddings) const {
  SCENEREC_TRACE_SPAN_F("retrieval/build", "retrieval", trace::Floor::kNone,
                        "kind=%s items=%lld dim=%lld",
                        IndexKindName(config_.kind),
                        static_cast<long long>(embeddings.num_items),
                        static_cast<long long>(embeddings.dim));
  t_builds.Add(1);
  switch (config_.kind) {
    case IndexKind::kExact:
      return std::unique_ptr<ItemIndex>(new ExactIndex(std::move(embeddings)));
    case IndexKind::kIvf: {
      IvfIndex::Options opt;
      opt.nlist = config_.nlist;
      opt.nprobe = config_.nprobe;
      opt.kmeans_iterations = config_.kmeans_iterations;
      opt.seed = config_.seed;
      return std::unique_ptr<ItemIndex>(
          new IvfIndex(std::move(embeddings), opt));
    }
  }
  return Status::Internal("unreachable index kind");
}

StatusOr<std::unique_ptr<ItemIndex>> IndexBuilder::Build(
    Recommender& model) const {
  if (!model.SupportsRetrievalEmbeddings()) {
    return Status::FailedPrecondition(
        model.name() + " does not export retrieval embeddings");
  }
  return BuildFromEmbeddings(model.ExportItemEmbeddings());
}

StatusOr<std::unique_ptr<ItemIndex>> IndexBuilder::BuildFromSnapshot(
    const std::string& path, const ModelContext& context,
    const ModelFactoryConfig& factory_config,
    std::unique_ptr<Recommender>* model_out) const {
  SCENEREC_ASSIGN_OR_RETURN(std::unique_ptr<Recommender> model,
                            OpenRecommenderFromSnapshot(path, context,
                                                        factory_config));
  SCENEREC_ASSIGN_OR_RETURN(std::unique_ptr<ItemIndex> index, Build(*model));
  if (model_out != nullptr) *model_out = std::move(model);
  return index;
}

}  // namespace scenerec
