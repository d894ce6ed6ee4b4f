// Compares a chosen subset of recommenders on one dataset — a lightweight
// interactive version of the Table 2 benchmark for experimenting with
// hyper-parameters from the command line.
//
//   ./examples/model_comparison [--models=BPR-MF,NGCF,SceneRec]
//       [--dataset=Electronics] [--scale=0.02] [--epochs=6] [--dim=32]
//       [--lr=0] [--verbose]

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/malloc_tuning.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/string_util.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"

namespace {

using namespace scenerec;

int Run(int argc, char** argv) {
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddString("models", "BPR-MF,NGCF,SceneRec",
                  "comma-separated Table 2 model names");
  flags.AddString("dataset", "Electronics", "JD preset name");
  flags.AddDouble("scale", 0.02, "dataset scale");
  flags.AddInt64("epochs", 6, "training epochs");
  flags.AddInt64("dim", 32, "embedding dimension");
  flags.AddDouble("lr", 0.0, "learning rate; 0 = per-model tuned default");
  flags.AddInt64("seed", 42, "RNG seed");
  flags.AddString("retrieval", "",
                  "also report two-stage retrieval recall@100 vs the exact "
                  "backend: exact | ivf");
  flags.AddInt64("nprobe", 8, "IVF lists probed per query");
  flags.AddInt64("nlist", 0, "IVF list count; 0 = sqrt(num_items)");
  flags.AddBool("verbose", false, "per-epoch logging");
  flags.AddInt64("threads", 1,
                 "worker threads for training/evaluation; 0 = all hardware "
                 "threads, 1 = serial (bitwise-reproducible)");
  flags.AddImplicitString("telemetry", "", "-",
                          "collect runtime telemetry; bare dumps JSON to "
                          "stdout at exit, =path.json writes a file");
  flags.AddImplicitString("trace", "", "-",
                          "record a span timeline (Chrome trace-event JSON); "
                          "bare dumps to stdout at exit, =path.json writes "
                          "a file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Help();
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  if (flags.GetInt64("threads") < 0) {
    std::cerr << "--threads must be non-negative (0 = hardware concurrency)\n";
    return 1;
  }
  SetDefaultThreadPoolThreads(flags.GetInt64("threads"));
  const std::string telemetry_sink = flags.GetString("telemetry");
  if (!telemetry_sink.empty()) telemetry::Telemetry::SetEnabled(true);
  const std::string trace_sink = flags.GetString("trace");
  if (!trace_sink.empty()) trace::Trace::Start();

  JdPreset preset = JdPreset::kElectronics;
  for (JdPreset p : AllJdPresets()) {
    if (flags.GetString("dataset") == JdPresetName(p)) preset = p;
  }
  auto prepared_or =
      bench::PrepareJdDataset(preset, flags.GetDouble("scale"), seed);
  if (!prepared_or.ok()) {
    std::cerr << prepared_or.status().ToString() << "\n";
    return 1;
  }
  bench::PreparedDataset prepared = std::move(prepared_or).value();
  std::printf("dataset %s: %lld users, %lld items, %zu train interactions\n\n",
              prepared.dataset.name.c_str(),
              static_cast<long long>(prepared.dataset.num_users),
              static_cast<long long>(prepared.dataset.num_items),
              prepared.split.train.size());

  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = flags.GetInt64("dim");
  factory_config.seed = seed + 17;

  const std::string retrieval = flags.GetString("retrieval");
  std::printf("%-16s | %-9s %-9s | %-9s %-7s", "Model", "NDCG@10", "HR@10",
              "train s", "epochs");
  if (!retrieval.empty()) std::printf(" | %-10s", "recall@100");
  std::printf("\n%s\n", std::string(retrieval.empty() ? 60 : 74, '-').c_str());
  for (const std::string& name : Split(flags.GetString("models"), ',')) {
    TrainConfig train_config;
    train_config.epochs = flags.GetInt64("epochs");
    train_config.seed = seed + 23;
    train_config.verbose = flags.GetBool("verbose");
    train_config.threads = flags.GetInt64("threads");
    train_config.learning_rate =
        flags.GetDouble("lr") > 0.0
            ? static_cast<float>(flags.GetDouble("lr"))
            : bench::TunedLearningRate(name);
    std::unique_ptr<Recommender> model;
    auto cell = bench::RunCell(name, prepared, factory_config, train_config,
                               retrieval.empty() ? nullptr : &model);
    if (!cell.ok()) {
      std::cerr << name << ": " << cell.status().ToString() << "\n";
      continue;
    }
    std::printf("%-16s | %-9.4f %-9.4f | %-9.1f %-7lld", name.c_str(),
                cell->test.ndcg, cell->test.hr, cell->train_seconds,
                static_cast<long long>(cell->epochs_run));
    if (!retrieval.empty()) {
      // Retrieval quality of the TRAINED embeddings: recall@100 of the
      // selected backend against the exact reference (docs/retrieval.md).
      auto kind = ParseIndexKind(retrieval);
      if (!kind.ok()) {
        std::cerr << "\n" << kind.status().ToString() << "\n";
        return 1;
      }
      if (model == nullptr || !model->SupportsRetrievalEmbeddings()) {
        std::printf(" | %-10s", "n/a");
      } else {
        model->OnEvalBegin();
        IndexBuildConfig config;
        config.kind = kind.value();
        config.nlist = flags.GetInt64("nlist");
        config.nprobe = flags.GetInt64("nprobe");
        auto index = IndexBuilder(config).Build(*model);
        auto exact = IndexBuilder().Build(*model);
        if (!index.ok() || !exact.ok()) {
          std::cerr << "\n"
                    << (index.ok() ? exact : index).status().ToString()
                    << "\n";
          return 1;
        }
        std::vector<int64_t> users(
            static_cast<size_t>(prepared.dataset.num_users));
        for (size_t u = 0; u < users.size(); ++u) {
          users[u] = static_cast<int64_t>(u);
        }
        const int64_t k = std::min<int64_t>(100, prepared.dataset.num_items);
        std::printf(" | %-10.4f",
                    RetrievalRecallAtK(*model, *index.value(), *exact.value(),
                                       k, users));
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
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
    if (flags.GetBool("verbose")) {
      std::cerr << trace::Trace::SelfTimeSummary();
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
