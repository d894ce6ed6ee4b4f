#include "train/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <span>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "nn/snapshot.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace scenerec {

Status TrainConfig::Validate() const {
  if (epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (learning_rate <= 0.0f) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (weight_decay < 0.0f) {
    return Status::InvalidArgument("weight_decay must be non-negative");
  }
  if (lr_decay <= 0.0f || lr_decay > 1.0f) {
    return Status::InvalidArgument("lr_decay must be in (0, 1]");
  }
  if (eval_k <= 0) return Status::InvalidArgument("eval_k must be positive");
  if (patience < 0) {
    return Status::InvalidArgument("patience must be non-negative");
  }
  if (threads < 0) {
    return Status::InvalidArgument(
        "threads must be non-negative (0 = hardware concurrency)");
  }
  if (!snapshot_dir.empty() && snapshot_retain < 1) {
    return Status::InvalidArgument("snapshot_retain must be at least 1");
  }
  return Status::OK();
}

namespace {

// Trainer telemetry (docs/observability.md). The phase histograms record one
// sample per epoch (the epoch's total time in that phase); shard_skew_pct
// records one sample per sharded batch. train/nonfinite_loss counts aborted
// runs — a non-zero value in a telemetry dump means divergence, not slowness.
const telemetry::Counter t_epochs = telemetry::RegisterCounter("train/epochs");
const telemetry::Counter t_batches =
    telemetry::RegisterCounter("train/batches");
const telemetry::Counter t_triples =
    telemetry::RegisterCounter("train/triples");
const telemetry::Counter t_nonfinite_loss =
    telemetry::RegisterCounter("train/nonfinite_loss");
const telemetry::Histogram t_sampling_ns =
    telemetry::RegisterHistogram("trainer/sampling_ns", "ns");
const telemetry::Histogram t_forward_ns =
    telemetry::RegisterHistogram("trainer/forward_ns", "ns");
const telemetry::Histogram t_backward_ns =
    telemetry::RegisterHistogram("trainer/backward_ns", "ns");
const telemetry::Histogram t_optimizer_ns =
    telemetry::RegisterHistogram("trainer/optimizer_ns", "ns");
const telemetry::Histogram t_eval_ns =
    telemetry::RegisterHistogram("trainer/eval_ns", "ns");
const telemetry::Histogram t_shard_skew =
    telemetry::RegisterHistogram("trainer/shard_skew_pct", "pct");

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Copies current parameter values (for best-epoch model selection).
std::vector<std::vector<float>> SnapshotParameters(
    const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> snapshot;
  snapshot.reserve(params.size());
  for (const Tensor& p : params) snapshot.push_back(p.value());
  return snapshot;
}

void RestoreParameters(std::vector<Tensor>& params,
                       const std::vector<std::vector<float>>& snapshot) {
  SCENEREC_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = snapshot[i];
  }
}

}  // namespace

StatusOr<TrainResult> TrainAndEvaluate(Recommender& model,
                                       const LeaveOneOutSplit& split,
                                       const UserItemGraph& train_graph,
                                       const TrainConfig& config) {
  SCENEREC_RETURN_IF_ERROR(config.Validate());
  if (split.train.empty()) {
    return Status::FailedPrecondition("empty training set");
  }
  if (config.telemetry) telemetry::Telemetry::SetEnabled(true);
  if (config.trace) trace::Trace::SetEnabled(true);
  // Phase timing only runs when telemetry is on; otherwise the loop below is
  // byte-for-byte the uninstrumented path (instrument is loop-invariant).
  const bool instrument = telemetry::Enabled();

  Rng rng(config.seed);
  BprBatcher batcher(split.train, train_graph);

  // Parallel setup. The pool is created only for a genuinely parallel run:
  // inside another pool's worker (e.g. a parallel grid search) training
  // stays serial, which both avoids oversubscription and keeps nested runs
  // bitwise-deterministic.
  const int64_t num_threads = ResolveThreadCount(config.threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && !ThreadPool::InWorkerThread()) {
    pool = std::make_unique<ThreadPool>(num_threads);
  }
  const bool shard_training = pool != nullptr && model.SupportsShardedLoss();
  // Each shard samples from its own generator. The shard generators derive
  // from a stream independent of `rng` so that the batcher draws (epoch
  // shuffles, negative samples) are identical in serial and parallel runs —
  // parallelism then changes only model-internal sampling and float
  // summation order.
  std::vector<Rng> shard_rngs;
  if (shard_training) {
    Rng shard_seed_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
    shard_rngs.reserve(static_cast<size_t>(num_threads));
    for (int64_t s = 0; s < num_threads; ++s) {
      shard_rngs.push_back(shard_seed_rng.Split());
    }
  }
  // Below this many triples a shard is not worth its scheduling overhead.
  constexpr int64_t kMinShardTriples = 8;

  std::vector<Tensor> params = model.Parameters();
  OptimizerOptions optimizer_options;
  optimizer_options.learning_rate = config.learning_rate;
  optimizer_options.weight_decay = config.weight_decay;
  optimizer_options.clip_norm = config.clip_norm;
  SCENEREC_ASSIGN_OR_RETURN(
      std::unique_ptr<Optimizer> optimizer,
      MakeOptimizer(config.optimizer, params, optimizer_options));

  TrainResult result;
  std::vector<std::vector<float>> best_snapshot;
  double best_ndcg = -1.0;
  int64_t epochs_since_best = 0;
  // Versioned snapshot publication (one Write per validation improvement).
  // The store lives across epochs so version ids stay monotonic within the
  // run even after pruning.
  std::optional<SnapshotStore> snapshot_store;
  if (!config.snapshot_dir.empty()) {
    snapshot_store.emplace(config.snapshot_dir, config.snapshot_retain);
  }
  Stopwatch stopwatch;

  float current_lr = config.learning_rate;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    SCENEREC_TRACE_SPAN_F("trainer/epoch", "trainer", trace::Floor::kNone,
                          "epoch=%lld", static_cast<long long>(epoch + 1));
    model.OnEpochBegin();
    optimizer->set_learning_rate(current_lr);
    // Per-epoch phase accumulators (ns). Forward/backward are atomics
    // because shard workers add to them; the contended adds happen at most
    // once per shard per batch, far off the kernel hot path.
    uint64_t sampling_ns = 0;
    uint64_t optimizer_ns = 0;
    uint64_t eval_ns = 0;
    std::atomic<uint64_t> forward_ns{0};
    std::atomic<uint64_t> backward_ns{0};
    uint64_t max_skew_pct = 0;

    uint64_t phase_start = instrument ? NowNs() : 0;
    const std::vector<BprTriple> triples = [&] {
      SCENEREC_TRACE_SPAN("trainer/sampling", "trainer", trace::Floor::kNone);
      return batcher.NextEpoch(rng);
    }();
    if (instrument) sampling_ns = NowNs() - phase_start;
    const std::span<const BprTriple> all_triples(triples);
    double loss_sum = 0.0;
    for (size_t begin = 0; begin < triples.size();
         begin += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          triples.size(), begin + static_cast<size_t>(config.batch_size));
      const std::span<const BprTriple> batch =
          all_triples.subspan(begin, end - begin);
      optimizer->ZeroGrad();
      const int64_t num_shards =
          shard_training
              ? std::min<int64_t>(
                    num_threads,
                    (static_cast<int64_t>(batch.size()) + kMinShardTriples - 1) /
                        kMinShardTriples)
              : 1;
      double batch_loss = 0.0;
      if (num_shards > 1) {
        // Data-parallel step: each shard builds its own forward graph and
        // runs Backward concurrently; accumulation into the shared leaf
        // parameters is serialized per node inside the autograd engine, so
        // after the loop the gradients equal the serial sum of shard
        // gradients (up to float summation order). One optimizer step then
        // applies the combined gradient.
        model.PrepareShards(num_shards);
        std::vector<Tensor> shard_losses(static_cast<size_t>(num_shards));
        std::vector<uint64_t> shard_ns(static_cast<size_t>(num_shards), 0);
        pool->ParallelFor(
            num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi) {
              // Route this lane's forward/backward intermediates through the
              // worker's step arena. The scope resets the arena on entry (not
              // exit), so the shard-loss scalars stay readable after the
              // join below; parameter leaves are heap-backed regardless.
              ArenaScope step_arena;
              for (int64_t s = lo; s < hi; ++s) {
                const size_t shard_begin =
                    batch.size() * static_cast<size_t>(s) /
                    static_cast<size_t>(num_shards);
                const size_t shard_end =
                    batch.size() * static_cast<size_t>(s + 1) /
                    static_cast<size_t>(num_shards);
                const uint64_t t0 = instrument ? NowNs() : 0;
                Tensor loss;
                {
                  SCENEREC_TRACE_SPAN_F("trainer/forward", "trainer",
                                        trace::Floor::kNone, "shard=%lld",
                                        static_cast<long long>(s));
                  loss = model.BatchLossShard(
                      batch.subspan(shard_begin, shard_end - shard_begin), s,
                      shard_rngs[static_cast<size_t>(s)]);
                }
                const uint64_t t1 = instrument ? NowNs() : 0;
                {
                  SCENEREC_TRACE_SPAN_F("trainer/backward", "trainer",
                                        trace::Floor::kNone, "shard=%lld",
                                        static_cast<long long>(s));
                  Backward(loss);
                }
                if (instrument) {
                  const uint64_t t2 = NowNs();
                  forward_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
                  backward_ns.fetch_add(t2 - t1, std::memory_order_relaxed);
                  shard_ns[static_cast<size_t>(s)] = t2 - t0;
                }
                shard_losses[static_cast<size_t>(s)] = loss;
              }
            });
        if (instrument) {
          // Shard imbalance for this step: how much slower the slowest
          // shard was than the fastest, as a percentage of the slowest.
          const auto [lo_it, hi_it] =
              std::minmax_element(shard_ns.begin(), shard_ns.end());
          if (*hi_it > 0) {
            const uint64_t skew = (*hi_it - *lo_it) * 100 / *hi_it;
            t_shard_skew.Record(skew);
            max_skew_pct = std::max(max_skew_pct, skew);
          }
        }
        // Reduce in shard order so the reported loss is scheduling-free.
        for (const Tensor& shard_loss : shard_losses) {
          batch_loss += shard_loss.scalar();
        }
      } else {
        // Serial step: the whole forward graph and every gradient buffer of
        // non-leaf nodes live in this thread's step arena, reclaimed in O(1)
        // when the next step's scope resets it.
        ArenaScope step_arena;
        const uint64_t t0 = instrument ? NowNs() : 0;
        Tensor loss;
        {
          SCENEREC_TRACE_SPAN("trainer/forward", "trainer", trace::Floor::kNone);
          loss = model.BatchLoss(batch);
        }
        const uint64_t t1 = instrument ? NowNs() : 0;
        batch_loss = loss.scalar();
        {
          SCENEREC_TRACE_SPAN("trainer/backward", "trainer",
                              trace::Floor::kNone);
          Backward(loss);
        }
        if (instrument) {
          const uint64_t t2 = NowNs();
          forward_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
          backward_ns.fetch_add(t2 - t1, std::memory_order_relaxed);
        }
      }
      if (!std::isfinite(batch_loss)) {
        // A NaN/Inf loss would otherwise poison the parameters and then
        // sail through model selection (NaN comparisons are all false, so
        // `ndcg > best` never updates and the stale snapshot ships
        // silently). Fail loudly instead.
        t_nonfinite_loss.Add(1);
        SCENEREC_LOG(ERROR) << model.name() << " diverged: non-finite loss "
                            << batch_loss << " in epoch " << epoch + 1
                            << " at triple offset " << begin << "/"
                            << triples.size()
                            << " (lr " << current_lr << ")";
        return Status::Internal("training diverged: non-finite batch loss");
      }
      loss_sum += batch_loss;
      t_batches.Add(1);
      t_triples.Add(batch.size());
      phase_start = instrument ? NowNs() : 0;
      {
        SCENEREC_TRACE_SPAN("trainer/optimizer", "trainer", trace::Floor::kNone);
        optimizer->Step();
      }
      if (instrument) optimizer_ns += NowNs() - phase_start;
    }
    const double mean_loss = loss_sum / static_cast<double>(triples.size());
    result.epoch_losses.push_back(mean_loss);

    model.OnEvalBegin();
    ThreadPool* eval_pool =
        (pool != nullptr && model.PrepareParallelScoring(*pool)) ? pool.get()
                                                                 : nullptr;
    phase_start = instrument ? NowNs() : 0;
    RankingMetrics validation = [&] {
      SCENEREC_TRACE_SPAN("trainer/eval", "trainer", trace::Floor::kNone);
      // Block interface: batching models answer each instance's candidate
      // list with row-batched GEMMs instead of per-pair forwards.
      return EvaluateRanking(model.BlockScorer(), split.validation,
                             config.eval_k, eval_pool);
    }();
    if (instrument) eval_ns = NowNs() - phase_start;
    if (!std::isfinite(validation.ndcg) || !std::isfinite(validation.hr) ||
        !std::isfinite(validation.mrr)) {
      // The evaluator reports NaN when any score was non-finite. Without
      // this check a diverged model is NaN-blind: `ndcg > best_ndcg` is
      // false for NaN, so the run would quietly keep an earlier snapshot
      // (or, before the evaluator fix, even rank the NaN model as perfect).
      t_nonfinite_loss.Add(1);
      SCENEREC_LOG(ERROR) << model.name()
                          << " diverged: non-finite validation metrics in "
                          << "epoch " << epoch + 1 << " (NDCG "
                          << validation.ndcg << ", HR " << validation.hr
                          << ")";
      return Status::Internal(
          "training diverged: non-finite validation metrics");
    }
    result.epoch_validations.push_back(validation);
    if (config.verbose) {
      SCENEREC_LOG(INFO) << model.name() << " epoch " << epoch + 1 << "/"
                         << config.epochs << " loss " << mean_loss
                         << " val NDCG@" << config.eval_k << " "
                         << validation.ndcg << " HR@" << config.eval_k << " "
                         << validation.hr;
    }
    if (instrument) {
      t_epochs.Add(1);
      t_sampling_ns.Record(sampling_ns);
      t_forward_ns.Record(forward_ns.load(std::memory_order_relaxed));
      t_backward_ns.Record(backward_ns.load(std::memory_order_relaxed));
      t_optimizer_ns.Record(optimizer_ns);
      t_eval_ns.Record(eval_ns);
      if (config.verbose) {
        const auto ms = [](uint64_t ns) {
          return static_cast<double>(ns) / 1e6;
        };
        SCENEREC_LOG(INFO)
            << model.name() << " epoch " << epoch + 1 << " phases[ms]"
            << " sample=" << ms(sampling_ns)
            << " fwd=" << ms(forward_ns.load(std::memory_order_relaxed))
            << " bwd=" << ms(backward_ns.load(std::memory_order_relaxed))
            << " opt=" << ms(optimizer_ns) << " eval=" << ms(eval_ns)
            << " max_shard_skew=" << max_skew_pct << "%";
      }
    }
    ++result.epochs_run;
    if (validation.ndcg > best_ndcg) {
      best_ndcg = validation.ndcg;
      result.best_validation = validation;
      result.best_epoch = epoch;
      best_snapshot = SnapshotParameters(params);
      epochs_since_best = 0;
      if (snapshot_store.has_value()) {
        SCENEREC_ASSIGN_OR_RETURN(
            const uint64_t version,
            snapshot_store->Write(model, model.name()));
        result.last_snapshot_version = version;
        result.last_snapshot_path = snapshot_store->PathFor(version);
      }
    } else {
      ++epochs_since_best;
      if (config.patience > 0 && epochs_since_best >= config.patience) break;
    }
    current_lr *= config.lr_decay;
  }
  result.train_seconds = stopwatch.ElapsedSeconds();

  // Model selection: evaluate the test set with the best-validation weights.
  if (!best_snapshot.empty()) RestoreParameters(params, best_snapshot);
  model.OnEpochBegin();  // e.g. KGAT attention must match restored weights
  model.OnEvalBegin();
  ThreadPool* test_pool =
      (pool != nullptr && model.PrepareParallelScoring(*pool)) ? pool.get()
                                                               : nullptr;
  result.test = EvaluateRanking(model.BlockScorer(), split.test,
                                config.eval_k, test_pool);
  return result;
}

}  // namespace scenerec
