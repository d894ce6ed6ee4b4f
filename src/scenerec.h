#ifndef SCENEREC_SCENEREC_H_
#define SCENEREC_SCENEREC_H_

/// Umbrella header: the public API of the scenerec library.
///
/// Typical flow (see examples/quickstart.cpp for a runnable version):
///   1. data:   GenerateSyntheticDataset / LoadDatasetTsv -> Dataset
///   2. split:  MakeLeaveOneOutSplit -> train / validation / test
///   3. graphs: UserItemGraph::Build + Dataset::BuildSceneGraph
///   4. model:  SceneRec (or MakeRecommender for any baseline)
///   5. train:  TrainAndEvaluate (BPR + RMSProp, eq. 15)
///   6. serve:  Recommender::Score / TopNRecommendations
///   7. persist: WriteSnapshot / OpenRecommenderFromSnapshot

#include "common/flags.h"
#include "common/logging.h"
#include "common/malloc_tuning.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/status_or.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "data/scene_mining.h"
#include "data/sessions.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tsv_io.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "graph/csr.h"
#include "graph/scene_graph.h"
#include "graph/stats.h"
#include "models/factory.h"
#include "models/recommender.h"
#include "models/scene_rec.h"
#include "nn/snapshot.h"
#include "train/grid_search.h"
#include "train/trainer.h"

#endif  // SCENEREC_SCENEREC_H_
