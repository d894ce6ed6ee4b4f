// Regenerates Table 2 of the paper: NDCG@10 / HR@10 of 6 baselines, 3
// SceneRec ablation variants, and SceneRec on the four JD-style datasets.
//
// Paper's qualitative result (what should reproduce here): the SceneRec
// family beats the baselines on every dataset, the full model beats its
// ablations, and GNN baselines (NGCF) beat flat MF/NCF baselines.
//
// After the table, every trained SceneRec-family model is also scored with
// the concat form of eq. (14) that training uses, next to the factorized
// eval head its Table 2 cell was measured with: test NDCG/HR under both
// heads and how many test users get the identical full-catalog top-10
// (EXPERIMENTS.md, "Rating-head parity").
//
//   ./bench_table2_comparison [--scale=0.05] [--epochs=10] [--dim=64]
//                             [--threads=0] [--models=all] [--datasets=all]
//                             [--seed=42] [--verbose]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/malloc_tuning.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "eval/top_n.h"
#include "tensor/tensor.h"

namespace {

using namespace scenerec;
using bench::CellResult;
using bench::PreparedDataset;

/// One trained SceneRec-family model under both eq. (14) heads.
struct HeadParity {
  std::string model;
  std::string dataset;
  RankingMetrics concat;
  RankingMetrics factorized;
  size_t same_top10 = 0;
  size_t users = 0;
};

HeadParity MeasureHeadParity(Recommender& model,
                             const PreparedDataset& prepared) {
  model.OnEvalBegin();
  const ScoreFn concat = [&model](int64_t user, int64_t item) {
    NoGradGuard no_grad;
    return model.ScoreForTraining(user, item).scalar();
  };
  const std::vector<EvalInstance>& test = prepared.split.test;
  HeadParity parity;
  parity.model = model.name();
  parity.dataset = prepared.dataset.name;
  parity.concat = EvaluateRanking(concat, test, 10);
  parity.factorized = EvaluateRanking(model.BlockScorer(), test, 10);
  for (const EvalInstance& instance : test) {
    const auto a =
        TopNRecommendations(concat, prepared.train_graph, instance.user, 10);
    const auto b = TopNRecommendations(model.BlockScorer(),
                                       prepared.train_graph, instance.user, 10);
    parity.same_top10 += std::equal(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const Recommendation& x, const Recommendation& y) {
          return x.item == y.item;
        });
    ++parity.users;
  }
  return parity;
}

int Run(int argc, char** argv) {
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddDouble("scale", 0.05, "dataset scale in (0, 1]");
  flags.AddInt64("epochs", 10, "max training epochs per model");
  flags.AddInt64("dim", 64, "embedding dimension (paper: 64)");
  flags.AddInt64("gnn_depth", 2, "NGCF/KGAT propagation depth (paper: 4)");
  flags.AddInt64("threads", 0, "worker threads (0 = hardware concurrency)");
  flags.AddInt64("seed", 42, "RNG seed");
  flags.AddString("models", "all",
                  "comma-separated model names or 'all' (Table 2 rows)");
  flags.AddString("datasets", "all",
                  "comma-separated dataset names or 'all'");
  flags.AddDouble("lr", 0.0,
                  "learning rate; 0 = per-model validation-tuned defaults");
  flags.AddDouble("weight_decay", 1e-6, "L2 coefficient lambda");
  flags.AddBool("verbose", false, "per-epoch logging");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Help();
    return 1;
  }

  std::vector<std::string> model_names;
  if (flags.GetString("models") == "all") {
    model_names = Table2ModelNames();
  } else {
    model_names = Split(flags.GetString("models"), ',');
  }
  std::vector<JdPreset> presets;
  if (flags.GetString("datasets") == "all") {
    presets = AllJdPresets();
  } else {
    for (const std::string& want : Split(flags.GetString("datasets"), ',')) {
      bool found = false;
      for (JdPreset p : AllJdPresets()) {
        if (want == JdPresetName(p)) {
          presets.push_back(p);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown dataset: " << want << "\n";
        return 1;
      }
    }
  }

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const double scale = flags.GetDouble("scale");

  std::printf("=== Table 2: model comparison ===\n");
  std::printf("scale %.3f, %lld epochs, dim %lld, %zu models x %zu datasets\n\n",
              scale, static_cast<long long>(flags.GetInt64("epochs")),
              static_cast<long long>(flags.GetInt64("dim")),
              model_names.size(), presets.size());

  // Prepare datasets (generation is fast; graphs are shared read-only by
  // all models of a dataset).
  std::vector<PreparedDataset> prepared;
  std::vector<std::string> dataset_names;
  for (JdPreset preset : presets) {
    auto p = bench::PrepareJdDataset(preset, scale, seed);
    if (!p.ok()) {
      std::cerr << p.status().ToString() << "\n";
      return 1;
    }
    dataset_names.push_back(p->dataset.name);
    prepared.push_back(std::move(p).value());
  }

  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = flags.GetInt64("dim");
  factory_config.ncf_dim = std::min<int64_t>(8, flags.GetInt64("dim"));
  factory_config.gnn_depth = flags.GetInt64("gnn_depth");
  factory_config.seed = seed + 17;

  TrainConfig train_config;
  train_config.epochs = flags.GetInt64("epochs");
  train_config.weight_decay =
      static_cast<float>(flags.GetDouble("weight_decay"));
  train_config.seed = seed + 23;
  train_config.verbose = flags.GetBool("verbose");
  const double lr_override = flags.GetDouble("lr");

  // Work queue: every (dataset, model) pair is independent.
  struct Task {
    size_t dataset_index;
    std::string model;
  };
  std::vector<Task> tasks;
  for (size_t d = 0; d < prepared.size(); ++d) {
    for (const std::string& model : model_names) tasks.push_back({d, model});
  }

  int64_t num_threads = flags.GetInt64("threads");
  if (num_threads <= 0) {
    num_threads = static_cast<int64_t>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  num_threads = std::min<int64_t>(num_threads,
                                  static_cast<int64_t>(tasks.size()));

  std::vector<CellResult> cells;
  std::vector<HeadParity> parities;
  std::mutex mutex;
  std::atomic<size_t> next_task{0};
  Stopwatch total;
  auto worker = [&]() {
    while (true) {
      const size_t index = next_task.fetch_add(1);
      if (index >= tasks.size()) return;
      const Task& task = tasks[index];
      TrainConfig task_config = train_config;
      task_config.learning_rate =
          lr_override > 0.0 ? static_cast<float>(lr_override)
                            : bench::TunedLearningRate(task.model);
      std::unique_ptr<Recommender> model;
      auto cell = bench::RunCell(task.model, prepared[task.dataset_index],
                                 factory_config, task_config, &model);
      std::optional<HeadParity> parity;
      if (cell.ok() && task.model.starts_with("SceneRec")) {
        parity = MeasureHeadParity(*model, prepared[task.dataset_index]);
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (parity.has_value()) parities.push_back(*parity);
      if (!cell.ok()) {
        std::cerr << task.model << " on " << dataset_names[task.dataset_index]
                  << ": " << cell.status().ToString() << "\n";
        continue;
      }
      std::printf("  [%3zu/%zu] %-16s %-13s NDCG@10 %.4f  HR@10 %.4f  (%.1fs, %lld epochs)\n",
                  index + 1, tasks.size(), cell->model.c_str(),
                  cell->dataset.c_str(), cell->test.ndcg, cell->test.hr,
                  cell->train_seconds,
                  static_cast<long long>(cell->epochs_run));
      std::fflush(stdout);
      cells.push_back(std::move(cell).value());
    }
  };
  std::vector<std::thread> threads;
  for (int64_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  std::printf("\n%s\n", bench::FormatTable2(model_names, dataset_names, cells).c_str());

  // Headline claim of the paper: SceneRec improves over the best baseline.
  const std::vector<std::string> baselines{"BPR-MF", "NCF",  "CMN",
                                           "PinSAGE", "NGCF", "KGAT"};
  for (const std::string& dataset : dataset_names) {
    double best_baseline_ndcg = 0, best_baseline_hr = 0;
    double scenerec_ndcg = -1, scenerec_hr = -1;
    for (const CellResult& cell : cells) {
      if (cell.dataset != dataset) continue;
      bool is_baseline = false;
      for (const std::string& b : baselines) is_baseline |= (cell.model == b);
      if (is_baseline) {
        best_baseline_ndcg = std::max(best_baseline_ndcg, cell.test.ndcg);
        best_baseline_hr = std::max(best_baseline_hr, cell.test.hr);
      } else if (cell.model == "SceneRec") {
        scenerec_ndcg = cell.test.ndcg;
        scenerec_hr = cell.test.hr;
      }
    }
    if (scenerec_ndcg >= 0 && best_baseline_ndcg > 0) {
      std::printf("%s: SceneRec vs best baseline: NDCG %+.1f%%, HR %+.1f%%\n",
                  dataset.c_str(),
                  100.0 * (scenerec_ndcg / best_baseline_ndcg - 1.0),
                  100.0 * (scenerec_hr / best_baseline_hr - 1.0));
    }
  }
  if (!parities.empty()) {
    std::printf(
        "\nRating-head parity (same trained parameters; test split):\n");
    std::printf("%-16s %-13s | %-17s | %-17s | %s\n", "Model", "Dataset",
                "concat NDCG/HR", "factorized NDCG/HR", "same top-10");
    for (const HeadParity& p : parities) {
      std::printf("%-16s %-13s | %.6f %.6f | %.6f %.6f | %zu/%zu\n",
                  p.model.c_str(), p.dataset.c_str(), p.concat.ndcg,
                  p.concat.hr, p.factorized.ndcg, p.factorized.hr,
                  p.same_top10, p.users);
    }
  }
  std::printf("\nTotal wall time: %.1fs with %lld threads\n",
              total.ElapsedSeconds(), static_cast<long long>(num_threads));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
