#include "models/factory.h"

#include "nn/snapshot.h"

#include "models/bpr_mf.h"
#include "models/cmn.h"
#include "models/kgat.h"
#include "models/ncf.h"
#include "models/ngcf.h"
#include "models/pinsage.h"
#include "models/scene_rec.h"

namespace scenerec {

StatusOr<std::unique_ptr<Recommender>> MakeRecommender(
    const std::string& name, const ModelContext& context,
    const ModelFactoryConfig& config) {
  if (context.user_item == nullptr) {
    return Status::FailedPrecondition("context.user_item is required");
  }
  Rng rng(config.seed);
  const UserItemGraph* graph = context.user_item;
  const int64_t num_users = graph->num_users();
  const int64_t num_items = graph->num_items();

  if (name == "BPR-MF") {
    return std::unique_ptr<Recommender>(
        new BprMf(num_users, num_items, config.embedding_dim, rng));
  }
  if (name == "NCF") {
    return std::unique_ptr<Recommender>(
        new Ncf(num_users, num_items, config.ncf_dim, rng));
  }
  if (name == "CMN") {
    return std::unique_ptr<Recommender>(
        new Cmn(graph, config.embedding_dim, config.max_neighbors, rng));
  }
  if (name == "PinSAGE") {
    // PinSAGE's per-score cost is fanout1 * fanout2 neighbor convolutions;
    // modest fanouts match the original paper's hard neighborhood caps.
    return std::unique_ptr<Recommender>(
        new PinSage(graph, config.embedding_dim,
                    /*fanout1=*/std::max<int64_t>(2, config.max_neighbors / 4),
                    /*fanout2=*/std::max<int64_t>(4, config.max_neighbors / 2),
                    rng));
  }
  if (name == "NGCF") {
    return std::unique_ptr<Recommender>(
        new Ngcf(graph, config.embedding_dim, config.gnn_depth, rng));
  }
  if (name == "KGAT") {
    if (context.scene == nullptr) {
      return Status::FailedPrecondition("KGAT needs the scene graph");
    }
    return std::unique_ptr<Recommender>(new Kgat(
        graph, context.scene, config.embedding_dim, config.gnn_depth, rng));
  }
  const bool is_scenerec = name == "SceneRec" || name == "SceneRec-noitem" ||
                           name == "SceneRec-nosce" ||
                           name == "SceneRec-noatt";
  if (is_scenerec) {
    if (context.scene == nullptr) {
      return Status::FailedPrecondition(name + " needs the scene graph");
    }
    SceneRecConfig model_config;
    model_config.embedding_dim = config.embedding_dim;
    model_config.max_neighbors = config.max_neighbors;
    model_config.use_item_item = name != "SceneRec-noitem";
    model_config.use_scene = name != "SceneRec-nosce";
    model_config.use_attention = name != "SceneRec-noatt";
    return std::unique_ptr<Recommender>(
        new SceneRec(graph, context.scene, model_config, rng));
  }
  return Status::InvalidArgument("unknown model: " + name);
}

StatusOr<std::unique_ptr<Recommender>> OpenRecommenderFromSnapshot(
    const std::string& path, const ModelContext& context,
    const ModelFactoryConfig& config) {
  SCENEREC_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                            Snapshot::Open(path));
  std::unique_ptr<Recommender> model;
  {
    // Every parameter built inside this scope is about to be rebound to a
    // mapped page, so the random factories skip their fill — construction
    // cost stays independent of table sizes.
    DeferredInitGuard defer;
    SCENEREC_ASSIGN_OR_RETURN(
        model, MakeRecommender(snapshot->tag(), context, config));
  }
  SCENEREC_RETURN_IF_ERROR(BindSnapshot(*model, snapshot));
  // Derived state computed during construction (KGAT's attention
  // coefficients) saw the deferred — zero — parameters; recompute it from
  // the mapped values. The hook is deterministic for every factory model,
  // which keeps snapshot-bound scores bitwise equal to the writer's.
  model->OnEpochBegin();
  return model;
}

std::vector<std::string> Table2ModelNames() {
  return {"BPR-MF",          "NCF",
          "CMN",             "PinSAGE",
          "NGCF",            "KGAT",
          "SceneRec-noitem", "SceneRec-nosce",
          "SceneRec-noatt",  "SceneRec"};
}

}  // namespace scenerec
