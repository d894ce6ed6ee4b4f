// The train workload: SceneRec d=64 trained with BPR (eq. 15) and RMSProp
// on the JD Electronics world for a fixed number of epochs and tested with
// the paper's sampled-100 protocol. Before and after training the model is
// handed to a server the way a training pipeline ships one: snapshot,
// zero-copy open, publish, first answer.

#include <atomic>
#include <cmath>
#include <filesystem>

#include "common/string_util.h"
#include "common/telemetry.h"
#include "nn/snapshot.h"
#include "perfbench.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace scenerec {
namespace perfbench {
namespace {

/// Set-ups per run; setup_s and the set-up stage metrics are medians.
constexpr int kSetups = 5;
/// Every training step waits for its slowest shard, so a run slows by about
/// the thread count times the share of CPU time the hypervisor gives to
/// other guests: two threads on a 4-vCPU host halve that against four.
constexpr int64_t kThreads = 2;
/// About twenty seconds of training at kThreads on a 4-vCPU host.
constexpr int64_t kEpochs = 4;
constexpr int64_t kTopN = 10;
/// Step latency is timed over this many consecutive steps (1,024 triples
/// at the default batch size): on a shared virtual machine single steps
/// stall for scheduler and hypervisor hiccups of a few milliseconds, which
/// would otherwise own the tail.
constexpr size_t kStepsPerSample = 8;
/// Snapshot -> publish -> first answer hand-offs of the initial and of the
/// trained model each; publish_to_first_response_ms is the median over
/// both bursts, which lie a training run apart.
constexpr int kHandoffs = 5;

/// Passes every Recommender call through to `inner` and timestamps the
/// hooks the trainer calls once per training step (PrepareShards on the
/// sharded path, BatchLoss on the serial one), per evaluation (OnEvalBegin)
/// and per epoch (OnEpochBegin). Those hooks run on the trainer's thread,
/// so the event log needs no lock. Block scoring during evaluation runs on
/// pool threads and is timed with atomics.
class StepClock : public Recommender {
 public:
  enum class Event { kStep, kEval, kEpoch };

  explicit StepClock(Recommender& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void CollectParameters(std::vector<Tensor>* out) const override {
    inner_.CollectParameters(out);
  }
  Tensor ScoreForTraining(int64_t user, int64_t item) override {
    return inner_.ScoreForTraining(user, item);
  }
  Tensor BatchLoss(std::span<const BprTriple> batch) override {
    Mark(Event::kStep);
    triples_.fetch_add(static_cast<int64_t>(batch.size()));
    return inner_.BatchLoss(batch);
  }
  bool SupportsShardedLoss() const override {
    return inner_.SupportsShardedLoss();
  }
  void PrepareShards(int64_t num_shards) override {
    Mark(Event::kStep);
    inner_.PrepareShards(num_shards);
  }
  Tensor BatchLossShard(std::span<const BprTriple> shard, int64_t shard_index,
                        Rng& rng) override {
    triples_.fetch_add(static_cast<int64_t>(shard.size()));
    return inner_.BatchLossShard(shard, shard_index, rng);
  }
  Tensor ShardScore(int64_t user, int64_t item, Rng* rng) override {
    return inner_.ShardScore(user, item, rng);
  }
  float Score(int64_t user, int64_t item) override {
    return inner_.Score(user, item);
  }
  bool SupportsBlockScoring() const override {
    return inner_.SupportsBlockScoring();
  }
  void ScoreBlock(int64_t user, std::span<const int64_t> items,
                  std::span<float> out) override {
    const double t0 = Now();
    inner_.ScoreBlock(user, items, out);
    score_ns_.fetch_add(static_cast<int64_t>((Now() - t0) * 1e9));
    score_rows_.fetch_add(static_cast<int64_t>(items.size()));
  }
  bool SupportsCrossUserScoring() const override {
    return inner_.SupportsCrossUserScoring();
  }
  void ScoreRows(std::span<const int64_t> users, std::span<const int64_t> items,
                 std::span<float> out) override {
    inner_.ScoreRows(users, items, out);
  }
  bool SupportsRetrievalEmbeddings() const override {
    return inner_.SupportsRetrievalEmbeddings();
  }
  int64_t RetrievalDim() const override { return inner_.RetrievalDim(); }
  RetrievalEmbeddings ExportItemEmbeddings() override {
    return inner_.ExportItemEmbeddings();
  }
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override {
    inner_.WriteRetrievalQuery(user, out);
  }
  bool SupportsUserReprCache() const override {
    return inner_.SupportsUserReprCache();
  }
  int64_t UserReprDim() const override { return inner_.UserReprDim(); }
  void AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                           uint64_t version) override {
    inner_.AttachUserReprCache(std::move(cache), version);
  }
  bool PrepareParallelScoring(ThreadPool& pool) override {
    return inner_.PrepareParallelScoring(pool);
  }
  void OnEvalBegin() override {
    Mark(Event::kEval);
    inner_.OnEvalBegin();
  }
  void OnEpochBegin() override {
    Mark(Event::kEpoch);
    epochs_.emplace_back(Now(), triples_.load());
    inner_.OnEpochBegin();
  }

  /// Wall time of every training step, from its hook to the next event,
  /// grouped by epoch.
  std::vector<std::vector<double>> StepMsByEpoch() const {
    std::vector<std::vector<double>> epochs;
    for (size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].first == Event::kEpoch) epochs.emplace_back();
      if (events_[i].first != Event::kStep || epochs.empty()) continue;
      if (i + 1 < events_.size()) {
        epochs.back().push_back((events_[i + 1].second - events_[i].second) *
                                1e3);
      }
    }
    return epochs;
  }
  /// Mean epoch wall time (sampling, steps and validation) in seconds:
  /// the trainer calls OnEpochBegin before every epoch and once after the
  /// last.
  double EpochSeconds() const {
    if (epochs_.size() < 2) return 0.0;
    return (epochs_.back().first - epochs_.front().first) /
           static_cast<double>(epochs_.size() - 1);
  }
  /// Training triples per second of each epoch's wall time.
  std::vector<double> EpochTriplesPerSecond() const {
    std::vector<double> rates;
    for (size_t e = 0; e + 1 < epochs_.size(); ++e) {
      rates.push_back(
          static_cast<double>(epochs_[e + 1].second - epochs_[e].second) /
          (epochs_[e + 1].first - epochs_[e].first));
    }
    return rates;
  }
  int64_t triples() const { return triples_.load(); }
  double ScoreNsPerRow() const {
    const int64_t rows = score_rows_.load();
    return rows == 0 ? 0.0
                     : static_cast<double>(score_ns_.load()) /
                           static_cast<double>(rows);
  }

 private:
  void Mark(Event event) { events_.emplace_back(event, Now()); }

  Recommender& inner_;
  std::vector<std::pair<Event, double>> events_;
  /// (start time, triples trained before it) of every epoch mark.
  std::vector<std::pair<double, int64_t>> epochs_;
  std::atomic<int64_t> triples_{0};
  std::atomic<int64_t> score_ns_{0};
  std::atomic<int64_t> score_rows_{0};
};

/// Sum of a telemetry histogram (ns), or 0 when it never recorded.
double HistogramSumNs(const telemetry::TelemetrySnapshot& snapshot,
                      const std::string& name) {
  const telemetry::HistogramSample* h = snapshot.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->data.sum);
}

}  // namespace

Result RunTrain(const Options& options) {
  Result result;
  std::vector<double> setup_s, generate_s, split_s, graph_s;
  std::unique_ptr<World> world;
  std::unique_ptr<Recommender> model;
  const ModelFactoryConfig factory = SceneRecFactory(SubSeed(options.seed, 2));
  for (int k = 0; k < kSetups; ++k) {
    model.reset();
    world.reset();
    const double t0 = Now();
    WorldTimes times;
    world = BuildWorld(JdElectronicsWorld(), SubSeed(options.seed, 1),
                       /*num_negatives=*/100, &times);
    model = MakeRecommender("SceneRec", world->context(), factory).value();
    setup_s.push_back(Now() - t0);
    generate_s.push_back(times.generate_s);
    split_s.push_back(times.split_s);
    graph_s.push_back(times.graph_s);
  }

  // Hand-off: snapshot the model, then open, publish and answer through a
  // fresh full-catalog server, kHandoffs times; every answer must equal
  // `reference`'s own TopNRecommendations.
  std::vector<double> write_ms, open_ms, publish_ms, first_ms, handoff_ms;
  const auto hand_off = [&](Recommender& reference, const std::string& name,
                            uint64_t purpose, bool corrupt) {
    const std::string snapshot = options.work_dir + "/" + name + ".srsnap";
    const double w0 = Now();
    CheckOk(WriteSnapshot(*model, model->name(), 1, snapshot));
    write_ms.push_back((Now() - w0) * 1e3);
    for (int k = 0; k < kHandoffs; ++k) {
      const int64_t user = static_cast<int64_t>(
          SubSeed(options.seed, purpose + static_cast<uint64_t>(k)) %
          static_cast<uint64_t>(world->dataset.num_users));
      serve::Server server(serve::ServerConfig(), world->graph);
      const double h0 = Now();
      std::shared_ptr<Recommender> opened =
          OpenRecommenderFromSnapshot(snapshot, world->context(), factory)
              .value();
      const double h1 = Now();
      server.Publish(opened);
      server.Start();
      const double h2 = Now();
      std::vector<Recommendation> recs;
      const bool ok = server.TopN(user, &recs);
      const double h3 = Now();
      server.Stop();
      std::vector<Recommendation> expected = TopNRecommendations(
          reference.BlockScorer(), world->graph, user, kTopN);
      if (corrupt && k == 0) CorruptForSelfTest(&expected);
      result.Check(ok && SameRecommendations(recs, expected));
      open_ms.push_back((h1 - h0) * 1e3);
      publish_ms.push_back((h2 - h1) * 1e3);
      first_ms.push_back((h3 - h2) * 1e3);
      handoff_ms.push_back((h3 - h0) * 1e3);
    }
    std::filesystem::remove(snapshot);
  };

  // The initial model is checked against an independently built copy, so
  // the model that trains is never put into eval mode before training.
  {
    std::unique_ptr<Recommender> initial =
        MakeRecommender("SceneRec", world->context(), factory).value();
    initial->OnEvalBegin();
    hand_off(*initial, "initial", 5, options.corrupt_expectation);
  }

  TrainConfig config;
  config.epochs = kEpochs;
  config.learning_rate = 2e-3f;  // the tuned SceneRec rate (bench_util.cc)
  config.patience = 0;
  config.threads = kThreads;
  config.seed = SubSeed(options.seed, 4);
  StepClock clock(*model);
  const telemetry::TelemetrySnapshot before = telemetry::Telemetry::Snapshot();
  const double t0 = Now();
  StatusOr<TrainResult> trained =
      TrainAndEvaluate(clock, world->split, world->graph, config);
  const double t1 = Now();
  const telemetry::TelemetrySnapshot after = telemetry::Telemetry::Snapshot();
  result.Check(trained.ok());
  if (!trained.ok()) {
    result.notes.push_back("training failed: " + trained.status().ToString());
    return result;
  }
  const TrainResult& train = trained.value();
  bool finite = std::isfinite(train.test.ndcg) && std::isfinite(train.test.hr);
  for (double loss : train.epoch_losses) finite = finite && std::isfinite(loss);
  result.Check(finite && train.epochs_run == kEpochs);
  // Step latency percentiles of each epoch, over the mean latency of each
  // run of kStepsPerSample consecutive steps; reported as the median over
  // epochs, so one slow epoch does not move them.
  std::vector<double> step_p50, step_p75;
  size_t steps = 0;
  for (const std::vector<double>& epoch : clock.StepMsByEpoch()) {
    steps += epoch.size();
    std::vector<double> samples;
    for (size_t i = 0; i + kStepsPerSample <= epoch.size();
         i += kStepsPerSample) {
      double sum = 0.0;
      for (size_t j = i; j < i + kStepsPerSample; ++j) sum += epoch[j];
      samples.push_back(sum / static_cast<double>(kStepsPerSample));
    }
    step_p50.push_back(Quantile(samples, 0.5));
    step_p75.push_back(Quantile(samples, 0.75));
  }

  model->OnEvalBegin();
  hand_off(*model, "trained", 5 + kHandoffs, /*corrupt=*/false);

  result.E2e("setup_s", Median(setup_s), "s");
  result.E2e("throughput_per_s", Median(clock.EpochTriplesPerSecond()),
             "1/s");
  result.E2e("latency_p50_ms", Median(step_p50), "ms");
  result.E2e("latency_p75_ms", Median(step_p75), "ms");
  result.E2e("publish_to_first_response_ms", InterquartileMean(handoff_ms),
             "ms");
  result.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  result.notes.push_back(StrFormat(
      "%lld epochs, %lld triples, %zu steps in %.3f s; test NDCG@10 %.4f "
      "HR@10 %.4f",
      static_cast<long long>(train.epochs_run),
      static_cast<long long>(clock.triples()), steps, t1 - t0,
      train.test.ndcg, train.test.hr));

  const double epochs = static_cast<double>(train.epochs_run);
  result.Layer("data.generate_s", Median(generate_s), "s");
  result.Layer("data.split_s", Median(split_s), "s");
  result.Layer("graph.build_s", Median(graph_s), "s");
  result.Layer("nn.snapshot_write_ms", Median(write_ms), "ms");
  result.Layer("nn.snapshot_open_ms", Median(open_ms), "ms");
  result.Layer("serve.publish_ms", Median(publish_ms), "ms");
  result.Layer("serve.first_response_ms", Median(first_ms), "ms");
  result.Layer("models.score_rows_ns_per_row", clock.ScoreNsPerRow(), "ns");
  result.Layer("train.epoch_s", clock.EpochSeconds(), "s");
  result.Layer("train.test_ndcg_at_10", train.test.ndcg, "ratio");
  result.Layer("train.test_hr_at_10", train.test.hr, "ratio");
  for (const char* phase :
       {"sampling", "forward", "backward", "optimizer", "eval"}) {
    const std::string hist = StrFormat("trainer/%s_ns", phase);
    result.Layer(StrFormat("train.%s_ms", phase),
                 (HistogramSumNs(after, hist) - HistogramSumNs(before, hist)) /
                     1e6 / epochs,
                 "ms");
  }
  result.Layer("pool.caller_wait_ms",
               (HistogramSumNs(after, "pool/caller_wait_ns") -
                HistogramSumNs(before, "pool/caller_wait_ns")) /
                   1e6 / epochs,
               "ms");
  return result;
}

}  // namespace perfbench
}  // namespace scenerec
