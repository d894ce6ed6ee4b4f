#ifndef SCENEREC_TRAIN_TRAINER_H_
#define SCENEREC_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "data/sampler.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "models/recommender.h"

namespace scenerec {

/// BPR triples per optimizer step.
inline constexpr int64_t kTrainBatchSize = 128;
/// Global gradient-norm clip of every optimizer step. Stabilizes
/// sum-aggregations.
inline constexpr float kTrainClipNorm = 5.0f;
/// Ranking cutoff K for HR@K / NDCG@K (the paper's K = 10).
inline constexpr int64_t kEvalK = 10;

/// Training-loop hyper-parameters. Every run follows the paper's protocol:
/// BPR loss (eq. 15) with RMSProp, evaluated at K = kEvalK.
struct TrainConfig {
  int64_t epochs = 10;
  float learning_rate = 1e-3f;
  /// The l2 coefficient lambda of eq. (15), applied as weight decay.
  float weight_decay = 1e-6f;
  /// Stop after this many epochs without validation-NDCG improvement
  /// (0 disables early stopping).
  int64_t patience = 3;
  /// Worker threads for data-parallel training and evaluation. 1 (default)
  /// is the fully serial, bitwise-reproducible path; 0 means "use every
  /// hardware thread"; N > 1 splits each batch into up to N shards whose
  /// backward passes run concurrently (see docs/parallelism.md — parallel
  /// training is deterministic only up to float summation order).
  int64_t threads = 1;
  uint64_t seed = 42;
  /// Log per-epoch progress via SCENEREC_LOG(INFO), and with telemetry on
  /// (telemetry::Telemetry::SetEnabled) each epoch's phase times too.
  bool verbose = false;
  /// When non-empty, every validation improvement writes a VERSIONED
  /// snapshot (nn/snapshot.h, tagged with the model's name) into this
  /// directory through a SnapshotStore: monotonic version ids, atomic
  /// publication, and only the newest `snapshot_retain` files kept. A crash
  /// mid-run loses at most the epochs since the last improvement, and a
  /// serving process can open the latest version zero-copy
  /// (OpenRecommenderFromSnapshot) and hot-swap it in while this run is
  /// still training — see docs/serving.md.
  std::string snapshot_dir;
  /// How many snapshot versions to keep in `snapshot_dir` (>= 1).
  int64_t snapshot_retain = 3;

  Status Validate() const;
};

/// Outcome of one training run. Test metrics are measured with the
/// parameters restored from the best validation epoch (model selection on
/// the validation set, Section 5.3).
struct TrainResult {
  RankingMetrics best_validation;
  RankingMetrics test;
  std::vector<double> epoch_losses;  // mean BPR loss per triple, per epoch
  /// Validation metrics after each epoch — the model's learning curve.
  std::vector<RankingMetrics> epoch_validations;
  int64_t best_epoch = -1;
  int64_t epochs_run = 0;
  double train_seconds = 0.0;
  /// Path and version of the newest snapshot written via
  /// TrainConfig::snapshot_dir; empty / 0 when snapshotting is off or no
  /// epoch improved validation.
  std::string last_snapshot_path;
  uint64_t last_snapshot_version = 0;
};

/// Trains `model` on `split.train` (negatives drawn from `train_graph`) and
/// evaluates on validation after every epoch and on test at the end.
/// The model's parameters are left at the best-validation snapshot.
StatusOr<TrainResult> TrainAndEvaluate(Recommender& model,
                                       const LeaveOneOutSplit& split,
                                       const UserItemGraph& train_graph,
                                       const TrainConfig& config);

}  // namespace scenerec

#endif  // SCENEREC_TRAIN_TRAINER_H_
