// scenerec_cli: end-to-end command-line interface covering the full model
// lifecycle with persistent checkpoints.
//
//   train      generate (or load) a dataset, train a model, save a
//              checkpoint (an SRSNAP1 snapshot, nn/snapshot.h) and report
//              test metrics
//   evaluate   bind a checkpoint zero-copy and re-run the ranking
//              evaluation (sampled and full protocols)
//   recommend  bind a checkpoint zero-copy and print top-N items for a user
//
// The dataset and split are reproducible from (--dataset|--data_dir,
// --scale, --data_seed), so separate invocations see identical graphs —
// which is what makes checkpoints from `train` loadable by the other
// commands. Examples:
//
//   ./scenerec_cli train --model=SceneRec --ckpt=/tmp/sr.ckpt --epochs=8
//   ./scenerec_cli evaluate --model=SceneRec --ckpt=/tmp/sr.ckpt
//   ./scenerec_cli recommend --model=SceneRec --ckpt=/tmp/sr.ckpt --user=11

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/malloc_tuning.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/tsv_io.h"
#include "eval/top_n.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "nn/snapshot.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"
#include "train/trainer.h"

namespace {

using namespace scenerec;

struct CliContext {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph train_graph;
  SceneGraph scene_graph;
  std::unique_ptr<Recommender> model;
};

/// Builds the ANN candidate index selected by --retrieval over the model's
/// exported item embeddings (docs/retrieval.md).
StatusOr<std::unique_ptr<ItemIndex>> BuildRetrievalIndex(
    const FlagParser& flags, Recommender& model) {
  SCENEREC_ASSIGN_OR_RETURN(IndexKind kind,
                            ParseIndexKind(flags.GetString("retrieval")));
  IndexBuildConfig config;
  config.kind = kind;
  config.nlist = flags.GetInt64("nlist");
  config.nprobe = flags.GetInt64("nprobe");
  return IndexBuilder(config).Build(model);
}

/// Binds the checkpoint at `path` zero-copy into `model`, the model built
/// from --model. A checkpoint written for another model is refused.
Status BindCheckpoint(const std::string& path, Recommender& model) {
  SCENEREC_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                            Snapshot::Open(path));
  if (snapshot->tag() != model.name()) {
    return Status::FailedPrecondition("checkpoint " + path + " holds a " +
                                      snapshot->tag() +
                                      " model, but --model is " +
                                      model.name());
  }
  SCENEREC_RETURN_IF_ERROR(BindSnapshot(model, snapshot));
  // State derived from the constructor's parameters (KGAT's attention
  // coefficients) is recomputed from the bound ones, as
  // OpenRecommenderFromSnapshot does.
  model.OnEpochBegin();
  return Status::OK();
}

/// Fills `context` in place. In-place construction matters: the model holds
/// pointers to context.train_graph / context.scene_graph, so the context
/// must never be moved once the model exists.
Status BuildContext(const FlagParser& flags, CliContext& context) {
  const uint64_t data_seed =
      static_cast<uint64_t>(flags.GetInt64("data_seed"));
  if (!flags.GetString("data_dir").empty()) {
    SCENEREC_ASSIGN_OR_RETURN(context.dataset,
                              LoadDatasetTsv(flags.GetString("data_dir")));
  } else {
    JdPreset preset = JdPreset::kElectronics;
    bool found = false;
    for (JdPreset p : AllJdPresets()) {
      if (flags.GetString("dataset") == JdPresetName(p)) {
        preset = p;
        found = true;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown dataset preset: " +
                                     flags.GetString("dataset"));
    }
    SCENEREC_ASSIGN_OR_RETURN(
        context.dataset,
        GenerateSyntheticDataset(
            MakeJdConfig(preset, flags.GetDouble("scale")), data_seed));
  }
  Rng split_rng(data_seed ^ 0x9e3779b97f4a7c15ULL);
  SCENEREC_ASSIGN_OR_RETURN(
      context.split,
      MakeLeaveOneOutSplit(context.dataset, flags.GetInt64("negatives"),
                           split_rng));
  context.train_graph =
      UserItemGraph::Build(context.dataset.num_users,
                           context.dataset.num_items, context.split.train);
  context.scene_graph = context.dataset.BuildSceneGraph();

  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = flags.GetInt64("dim");
  factory_config.seed = data_seed + 17;
  ModelContext model_context{&context.train_graph, &context.scene_graph};
  SCENEREC_ASSIGN_OR_RETURN(
      context.model,
      MakeRecommender(flags.GetString("model"), model_context,
                      factory_config));
  return Status::OK();
}

int Train(const FlagParser& flags, CliContext& context) {
  TrainConfig config;
  config.epochs = flags.GetInt64("epochs");
  config.learning_rate =
      flags.GetDouble("lr") > 0
          ? static_cast<float>(flags.GetDouble("lr"))
          : bench::TunedLearningRate(context.model->name());
  config.seed = static_cast<uint64_t>(flags.GetInt64("data_seed")) + 23;
  config.verbose = flags.GetBool("verbose");
  config.threads = flags.GetInt64("threads");
  auto result =
      TrainAndEvaluate(*context.model, context.split, context.train_graph,
                       config);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s on %s: val NDCG@10 %.4f | test NDCG@10 %.4f HR@10 %.4f "
              "MRR %.4f (%lld epochs, %.1fs)\n",
              context.model->name().c_str(), context.dataset.name.c_str(),
              result->best_validation.ndcg, result->test.ndcg,
              result->test.hr, result->test.mrr,
              static_cast<long long>(result->epochs_run),
              result->train_seconds);
  const std::string ckpt = flags.GetString("ckpt");
  if (!ckpt.empty()) {
    if (Status s = WriteSnapshot(*context.model, context.model->name(),
                                 /*version=*/0, ckpt);
        !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::printf("checkpoint written to %s\n", ckpt.c_str());
  }
  return 0;
}

int Evaluate(const FlagParser& flags, CliContext& context) {
  context.model->OnEvalBegin();
  ThreadPool* pool = DefaultThreadPool();
  if (pool->num_threads() <= 1 ||
      !context.model->PrepareParallelScoring(*pool)) {
    pool = nullptr;
  }
  RankingMetrics sampled =
      EvaluateRanking(context.model->BlockScorer(), context.split.test, 10,
                      pool);
  std::printf("sampled-negatives protocol: NDCG@10 %.4f HR@10 %.4f MRR %.4f "
              "(%lld users)\n",
              sampled.ndcg, sampled.hr, sampled.mrr,
              static_cast<long long>(sampled.num_instances));
  if (flags.GetBool("full_ranking")) {
    RankingMetrics full =
        EvaluateFullRanking(context.model->BlockScorer(), context.train_graph,
                            context.split.test, 10, pool);
    std::printf("full-vocabulary protocol:   NDCG@10 %.4f HR@10 %.4f MRR %.4f\n",
                full.ndcg, full.hr, full.mrr);
  }
  // Retrieval quality protocol: recall@100 of the selected ANN backend
  // against the exact reference index, over every user.
  if (!flags.GetString("retrieval").empty()) {
    auto index = BuildRetrievalIndex(flags, *context.model);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }
    IndexBuildConfig exact_config;
    auto exact = IndexBuilder(exact_config).Build(*context.model);
    if (!exact.ok()) {
      std::cerr << exact.status().ToString() << "\n";
      return 1;
    }
    std::vector<int64_t> users(
        static_cast<size_t>(context.dataset.num_users));
    for (size_t u = 0; u < users.size(); ++u) {
      users[u] = static_cast<int64_t>(u);
    }
    const int64_t k = std::min<int64_t>(100, context.dataset.num_items);
    const double recall = RetrievalRecallAtK(*context.model, *index.value(),
                                             *exact.value(), k, users);
    std::printf("retrieval backend %-9s recall@%lld vs exact: %.4f\n",
                index.value()->name().c_str(), static_cast<long long>(k),
                recall);
  }
  return 0;
}

int Recommend(const FlagParser& flags, CliContext& context) {
  const int64_t user = flags.GetInt64("user");
  if (user < 0 || user >= context.dataset.num_users) {
    std::cerr << "--user=" << user << " is outside [0, "
              << context.dataset.num_users << ")\n";
    return 1;
  }
  context.model->OnEvalBegin();
  std::vector<Recommendation> recommendations;
  if (!flags.GetString("retrieval").empty()) {
    // Two-stage serving: ANN candidate generation, then exact rerank.
    auto index = BuildRetrievalIndex(flags, *context.model);
    if (!index.ok()) {
      std::cerr << index.status().ToString() << "\n";
      return 1;
    }
    SearchStats stats;
    recommendations =
        TwoStageTopN(*context.model, *index.value(), context.train_graph,
                     user, flags.GetInt64("top_n"),
                     flags.GetInt64("candidates"), &stats);
    std::printf("two-stage retrieval (%s): %lld lists probed, %lld items "
                "scanned, %lld candidates rescored\n",
                index.value()->name().c_str(),
                static_cast<long long>(stats.lists_probed),
                static_cast<long long>(stats.items_scanned),
                static_cast<long long>(stats.rescored));
  } else {
    recommendations =
        TopNRecommendations(context.model->BlockScorer(), context.train_graph,
                            user, flags.GetInt64("top_n"));
  }
  std::printf("top-%zu recommendations for user %lld (%s):\n",
              recommendations.size(), static_cast<long long>(user),
              context.model->name().c_str());
  auto* scene_rec = dynamic_cast<SceneRec*>(context.model.get());
  for (const Recommendation& rec : recommendations) {
    std::printf("  item %-6lld category %-4lld score %8.3f",
                static_cast<long long>(rec.item),
                static_cast<long long>(
                    context.scene_graph.CategoryOfItem(rec.item)),
                rec.score);
    if (scene_rec != nullptr) {
      std::printf("  scene-attention %6.3f",
                  scene_rec->AverageAttentionScore(user, rec.item));
    }
    std::printf("\n");
  }
  return 0;
}

int Run(int argc, char** argv) {
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddString("model", "SceneRec", "model name (see models/factory.h)");
  flags.AddString("dataset", "Electronics", "JD preset (used without --data_dir)");
  flags.AddString("data_dir", "", "load a TSV dataset instead of generating");
  flags.AddDouble("scale", 0.02, "synthetic dataset scale");
  flags.AddInt64("data_seed", 42, "dataset + split seed (must match across commands)");
  flags.AddInt64("negatives", 100, "negatives per evaluation instance");
  flags.AddInt64("dim", 32, "embedding dimension");
  flags.AddInt64("epochs", 8, "training epochs (train)");
  flags.AddDouble("lr", 0.0, "learning rate; 0 = per-model tuned default");
  flags.AddString("ckpt", "", "checkpoint path (written by train, read by others)");
  flags.AddInt64("user", 0, "user id (recommend)");
  flags.AddInt64("top_n", 10, "recommendations to print (recommend)");
  flags.AddString("retrieval", "",
                  "two-stage ANN backend: exact | ivf; empty = full-catalog "
                  "scoring (recommend/evaluate)");
  flags.AddInt64("candidates", 200,
                 "candidates retrieved before exact rerank (recommend)");
  flags.AddInt64("nprobe", 8, "IVF lists probed per query");
  flags.AddInt64("nlist", 0, "IVF list count; 0 = sqrt(num_items)");
  flags.AddBool("full_ranking", false, "also run the all-items protocol (evaluate)");
  flags.AddBool("verbose", false, "per-epoch logging");
  flags.AddInt64("threads", 1,
                 "worker threads for training/evaluation; 0 = all hardware "
                 "threads, 1 = serial (bitwise-reproducible)");
  flags.AddImplicitString("telemetry", "", "-",
                          "collect runtime telemetry; bare dumps JSON to "
                          "stdout at exit, =path.json writes a file");
  flags.AddImplicitString("trace", "", "-",
                          "record a span timeline (Chrome trace-event JSON, "
                          "loads in chrome://tracing); bare dumps to stdout "
                          "at exit, =path.json writes a file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Help();
    return 1;
  }
  if (flags.GetInt64("threads") < 0) {
    std::cerr << "--threads must be non-negative (0 = hardware concurrency)\n";
    return 1;
  }
  SetDefaultThreadPoolThreads(flags.GetInt64("threads"));
  const std::string telemetry_sink = flags.GetString("telemetry");
  if (!telemetry_sink.empty()) telemetry::Telemetry::SetEnabled(true);
  const std::string trace_sink = flags.GetString("trace");
  if (!trace_sink.empty()) trace::Trace::Start();
  if (flags.positional().size() != 1) {
    std::cerr << "usage: scenerec_cli <train|evaluate|recommend> [flags]\n"
              << flags.Help();
    return 1;
  }
  CliContext context;
  if (Status s = BuildContext(flags, context); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  const std::string command = flags.positional()[0];
  int code = 1;
  if (command == "train") {
    code = Train(flags, context);
  } else if (command == "evaluate" || command == "recommend") {
    // evaluate / recommend bind the checkpoint first.
    const std::string ckpt = flags.GetString("ckpt");
    if (ckpt.empty()) {
      std::cerr << command << " requires --ckpt\n";
      return 1;
    }
    if (Status s = BindCheckpoint(ckpt, *context.model); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    code = command == "evaluate" ? Evaluate(flags, context)
                                 : Recommend(flags, context);
  } else {
    std::cerr << "unknown command: " << command << "\n";
    return 1;
  }

  // Dump telemetry even when the command failed: the counters are exactly
  // what you want when diagnosing a diverged or slow run.
  if (!telemetry_sink.empty()) {
    if (telemetry_sink == "-") {
      std::cout << telemetry::Telemetry::ToJson();
    } else if (Status s = telemetry::Telemetry::WriteJsonFile(telemetry_sink);
               !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    } else {
      std::printf("telemetry written to %s\n", telemetry_sink.c_str());
    }
  }
  // Same contract for the trace: dump even on failure — the timeline of a
  // run that diverged or stalled is exactly the one worth looking at.
  if (!trace_sink.empty()) {
    if (trace_sink == "-") {
      std::cout << trace::Trace::ToChromeJson();
    } else if (Status s = trace::Trace::WriteChromeTrace(trace_sink);
               !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    } else {
      std::printf("trace written to %s\n", trace_sink.c_str());
    }
    // Self-time table goes to stderr so `--trace | gzip` style stdout
    // captures stay valid JSON.
    if (flags.GetBool("verbose")) {
      std::cerr << trace::Trace::SelfTimeSummary();
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
