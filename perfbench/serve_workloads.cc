// The two serving workloads: full-catalog Top-N (eq. (14) over every
// unseen item) and two-stage Top-N under periodic snapshot hot swaps. Both
// drive serve::Server in-process with closed-loop clients, time every
// request on the benchmark's own clock, and check answers against the library's
// single-request paths after the window.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "nn/snapshot.h"
#include "perfbench.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"
#include "serve/server.h"

namespace scenerec {
namespace perfbench {
namespace {

using Ticket = serve::Server::RequestTicket;

constexpr int64_t kTopN = 10;
/// Threads computing reference answers after the window (not timed).
constexpr int64_t kCheckThreads = 4;
/// Latency percentiles are taken per slice of the window this long.
constexpr double kSliceSeconds = 1.0;

/// Per-name samples of set-up and publish stage timings.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double Median(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : perfbench::Median(it->second);
  }
  double InterquartileMean(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : perfbench::InterquartileMean(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// One answered request of the measured window.
struct Completed {
  int64_t seq = 0;
  int64_t user = 0;
  double latency_ms = 0.0;
  /// When the answer arrived (Now()).
  double answered_s = 0.0;
  Ticket ticket;
  std::vector<Recommendation> recs;
  /// The publishes that may have served it, as publish indices: the last
  /// one finished before it was sent up to the last one begun before it
  /// was answered.
  int64_t first_publish = 0;
  int64_t last_publish = 0;
};

/// The answer to the request a set-up or publish sends right after the
/// model went live; checked with the window's responses.
struct FirstAnswer {
  int64_t user = 0;
  int version = 0;
  bool ok = false;
  std::vector<Recommendation> recs;
};

struct PublishCounters {
  std::atomic<int64_t> begun{0};
  std::atomic<int64_t> done{0};
};

/// Closed-loop load: each client sends its next request only after the
/// previous one was answered, as in-process callers of Server::TopN do.
/// Clients take stream positions from one shared counter, so the request
/// mix is the pre-generated stream whatever the timing.
class ClosedLoop {
 public:
  ClosedLoop(serve::Server& server, const std::vector<int64_t>& stream,
             int clients, const PublishCounters& publishes, int64_t limit)
      : server_(server),
        stream_(stream),
        publishes_(publishes),
        limit_(limit),
        results_(static_cast<size_t>(clients)) {}
  ~ClosedLoop() { Stop(); }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void Start() {
    for (size_t c = 0; c < results_.size(); ++c) {
      results_[c].reserve(1 << 14);
      threads_.emplace_back([this, c] { Client(c); });
    }
  }
  /// Lets in-flight requests finish, then joins the clients.
  void Stop() {
    stop_.store(true);
    Wait();
  }
  /// Joins the clients once they have sent `limit` requests.
  void Wait() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  int64_t completed() const { return completed_.load(); }
  int64_t rejected() const { return rejected_.load(); }

  /// All answered requests in stream order. Call after Stop.
  std::vector<Completed> Results() {
    std::vector<Completed> all;
    for (std::vector<Completed>& r : results_) {
      for (Completed& c : r) all.push_back(std::move(c));
      r.clear();
    }
    std::sort(all.begin(), all.end(),
              [](const Completed& a, const Completed& b) {
                return a.seq < b.seq;
              });
    return all;
  }

 private:
  void Client(size_t c) {
    std::vector<Completed>& out = results_[c];
    while (!stop_.load()) {
      const int64_t seq = next_.fetch_add(1);
      if (limit_ > 0 && seq >= limit_) break;
      Completed r;
      r.seq = seq;
      r.user = stream_[static_cast<size_t>(seq) % stream_.size()];
      r.first_publish = publishes_.done.load() - 1;
      const double t0 = Now();
      const bool ok = server_.TopN(r.user, &r.recs, &r.ticket);
      const double t1 = Now();
      r.last_publish = publishes_.begun.load() - 1;
      if (!ok) {
        rejected_.fetch_add(1);
        continue;
      }
      r.latency_ms = (t1 - t0) * 1e3;
      r.answered_s = t1;
      out.push_back(std::move(r));
      completed_.fetch_add(1);
    }
  }

  serve::Server& server_;
  const std::vector<int64_t>& stream_;
  const PublishCounters& publishes_;
  const int64_t limit_;
  std::vector<std::vector<Completed>> results_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_{0};
  std::vector<std::thread> threads_;
};

/// Counters the server and the kernels already export, read around the
/// window so per-request ratios cover exactly the measured requests.
struct ServerCounters {
  serve::Server::Stats stats;
  ReprCache::Stats cache;
  uint64_t flops = 0;

  static ServerCounters Read(const serve::Server& server) {
    ServerCounters c;
    c.stats = server.stats();
    c.cache = server.user_cache_stats();
    c.flops = telemetry::Telemetry::Snapshot().CounterValue("kernels/flops");
    return c;
  }
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// End-to-end metrics every serving workload reports from its window
/// [w0, w1]: requests answered per second of window, and the median and
/// upper-quartile latency of each whole kSliceSeconds slice of the window
/// (requests by the time they were answered), averaged over the slices.
/// Host speed comes in phases of seconds; a percentile pooled over the whole
/// window snaps from the level of one phase to that of the other as their
/// shares cross it, while the slice average, like throughput, moves in
/// proportion to the share.
void ReportWindow(const std::vector<Completed>& done, double w0, double w1,
                  Result* result) {
  std::vector<std::vector<double>> slices(
      static_cast<size_t>((w1 - w0) / kSliceSeconds));
  for (const Completed& c : done) {
    const size_t k = static_cast<size_t>((c.answered_s - w0) / kSliceSeconds);
    if (k < slices.size()) slices[k].push_back(c.latency_ms);
  }
  std::vector<double> p50, p75;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    p50.push_back(Quantile(slice, 0.5));
    p75.push_back(Quantile(slice, 0.75));
  }
  result->E2e("throughput_per_s",
              static_cast<double>(done.size()) / (w1 - w0), "1/s");
  result->E2e("latency_p50_ms", Mean(p50), "ms");
  result->E2e("latency_p75_ms", Mean(p75), "ms");
  result->notes.push_back(StrFormat(
      "window %.3f s, %zu requests timed on the benchmark clock, "
      "percentiles over %zu slices of %.0f s",
      w1 - w0, done.size(), p50.size(), kSliceSeconds));
}

/// Server-side per-layer metrics of a traced window: the request tickets'
/// queue/exec split, batching, scored rows, kernel counters and, when the
/// server runs a user-repr cache (`repr_cache`), its counters.
void ReportServerLayers(const std::vector<Completed>& done,
                        const ServerCounters& before,
                        const ServerCounters& after, bool repr_cache,
                        Result* result) {
  std::vector<double> wait_ms, exec_ms, latency;
  for (const Completed& c : done) {
    wait_ms.push_back(static_cast<double>(c.ticket.queue_wait_ns) / 1e6);
    exec_ms.push_back(static_cast<double>(c.ticket.exec_ns) / 1e6);
    latency.push_back(c.latency_ms);
  }
  const double requests =
      static_cast<double>(after.stats.requests - before.stats.requests);
  const double batches =
      static_cast<double>(after.stats.batches - before.stats.batches);
  const double rows =
      static_cast<double>(after.stats.rows_scored - before.stats.rows_scored);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  result->Layer("serve.queue_wait_ms_p50", Quantile(wait_ms, 0.5), "ms");
  result->Layer("serve.exec_ms_p50", Quantile(exec_ms, 0.5), "ms");
  result->Layer("serve.batch_size_mean", Ratio(requests, batches), "count");
  result->Layer("serve.rows_per_request", Ratio(rows, requests), "count");
  result->Layer("serve.latency_p90_ms", Quantile(latency, 0.9), "ms");
  result->Layer("serve.latency_p99_ms", Quantile(latency, 0.99), "ms");
  result->Layer("serve.latency_samples", static_cast<double>(latency.size()),
                "count");
  result->Layer("tensor.flops_per_request",
                Ratio(static_cast<double>(after.flops - before.flops),
                      requests),
                "count");
  if (repr_cache) {
    result->Layer("repr_cache.hit_ratio", Ratio(hits, hits + misses),
                  "ratio");
    result->Layer("repr_cache.misses_per_request", Ratio(misses, requests),
                  "count");
  }
}

/// Replays recorded admission batches (grouped by RequestTicket::batch_seq)
/// through the public calls ServeBatch makes — candidate build, ScoreRows
/// over kScoreBlockSize chunks, SelectTopNInPlace — timing each stage.
/// `index` null means full catalog. At most `max_batches` batches, evenly
/// spaced over the window.
void ReplayStages(Recommender& model, const ItemIndex* index,
                  const UserItemGraph& graph, int64_t num_candidates,
                  const std::vector<Completed>& done, size_t max_batches,
                  Result* result) {
  std::map<uint64_t, std::vector<int64_t>> batches;
  for (const Completed& c : done) batches[c.ticket.batch_seq].push_back(c.user);
  std::vector<const std::vector<int64_t>*> picked;
  const size_t stride = std::max<size_t>(1, batches.size() / max_batches);
  size_t i = 0;
  for (const auto& [seq, users] : batches) {
    if (i++ % stride == 0 && picked.size() < max_batches) {
      picked.push_back(&users);
    }
  }
  double candidates_s = 0.0, score_s = 0.0, select_s = 0.0;
  int64_t requests = 0, rows = 0;
  std::vector<std::vector<int64_t>> candidates;
  std::vector<int64_t> row_users, row_items;
  std::vector<float> scores;
  std::vector<Recommendation> scored;
  for (const std::vector<int64_t>* users : picked) {
    const double t0 = Now();
    if (index != nullptr) {
      candidates = RetrieveCandidatesBatch(model, *index, graph, *users,
                                           num_candidates);
    } else {
      candidates.resize(users->size());
      for (size_t r = 0; r < users->size(); ++r) {
        UninteractedItems(graph, (*users)[r], &candidates[r]);
      }
    }
    const double t1 = Now();
    row_users.clear();
    row_items.clear();
    for (size_t r = 0; r < users->size(); ++r) {
      row_users.insert(row_users.end(), candidates[r].size(), (*users)[r]);
      row_items.insert(row_items.end(), candidates[r].begin(),
                       candidates[r].end());
    }
    scores.resize(row_items.size());
    for (size_t offset = 0; offset < row_items.size();
         offset += static_cast<size_t>(kScoreBlockSize)) {
      const size_t len = std::min(static_cast<size_t>(kScoreBlockSize),
                                  row_items.size() - offset);
      model.ScoreRows(std::span<const int64_t>(row_users).subspan(offset, len),
                      std::span<const int64_t>(row_items).subspan(offset, len),
                      std::span<float>(scores).subspan(offset, len));
    }
    const double t2 = Now();
    size_t pos = 0;
    for (size_t r = 0; r < users->size(); ++r) {
      scored.clear();
      for (const int64_t item : candidates[r]) {
        scored.push_back({item, scores[pos++]});
      }
      SelectTopNInPlace(&scored, kTopN);
    }
    const double t3 = Now();
    candidates_s += t1 - t0;
    score_s += t2 - t1;
    select_s += t3 - t2;
    requests += static_cast<int64_t>(users->size());
    rows += static_cast<int64_t>(row_items.size());
  }
  const double n = std::max<double>(1.0, static_cast<double>(requests));
  const double per_batch = std::max<double>(1.0, static_cast<double>(picked.size()));
  result->Layer(index != nullptr ? "retrieval.candidates_us_per_request"
                                 : "eval.uninteracted_us_per_request",
                candidates_s / n * 1e6, "us");
  result->Layer("models.score_rows_ns_per_row",
                rows == 0 ? 0.0 : score_s / static_cast<double>(rows) * 1e9,
                "ns");
  result->Layer("eval.select_us_per_request", select_s / n * 1e6, "us");

  // Each stage's share of the median batch execution time; the rest is
  // admission, flattening and reply delivery the replay does not time.
  std::vector<double> exec_ms;
  for (const Completed& c : done) {
    exec_ms.push_back(static_cast<double>(c.ticket.exec_ns) / 1e6);
  }
  const double exec_p50 = Quantile(exec_ms, 0.5);
  const double stage_ms[3] = {candidates_s / per_batch * 1e3,
                              score_s / per_batch * 1e3,
                              select_s / per_batch * 1e3};
  const char* stage_names[3] = {
      index != nullptr ? "retrieval (RetrieveCandidatesBatch)"
                       : "candidates (UninteractedItems)",
      "scoring (ScoreRows)", "selection (SelectTopNInPlace)"};
  double attributed = 0.0;
  result->notes.push_back(StrFormat(
      "stage shares of serve.exec_ms_p50 = %.4f ms (replay of %zu of %zu "
      "batches, %lld requests, %lld rows):",
      exec_p50, picked.size(), batches.size(),
      static_cast<long long>(requests), static_cast<long long>(rows)));
  for (int s = 0; s < 3; ++s) {
    attributed += stage_ms[s];
    result->notes.push_back(StrFormat("  %-38s %9.4f ms/batch %6.1f%%",
                                      stage_names[s], stage_ms[s],
                                      100.0 * Ratio(stage_ms[s], exec_p50)));
  }
  const double remainder_pct = 100.0 * (1.0 - Ratio(attributed, exec_p50));
  result->notes.push_back(StrFormat("  %-38s %9.4f ms/batch %6.1f%%",
                                    "unattributed", exec_p50 - attributed,
                                    remainder_pct));
  result->Layer("serve.unattributed_pct", remainder_pct, "%");
}

// -- serve_full_catalog --------------------------------------------------------
//
// JD Electronics at scale 0.2 (768 users, 10,405 items), untrained SceneRec
// d=64 served from a zero-copy snapshot with full warm-up. Every request
// scores all of the user's unseen items with the eq. (14) MLP, which is
// nearly all of its time; retrieval, the repr cache and training stay idle.

/// Set-ups per run; setup_s and the set-up stage metrics are medians.
constexpr int kFullSetups = 7;
constexpr int kFullClients = 2;
/// Users at stream positions divisible by this are checked (154 of 768).
constexpr int64_t kFullCheckEvery = 5;
/// Extra publish samples taken on the idle server after the window.
constexpr int kRepublishes = 9;

struct FullCatalogSetup {
  std::unique_ptr<World> world;
  std::shared_ptr<Recommender> live;
  std::unique_ptr<serve::Server> server;
};

serve::ServerConfig FullCatalogConfig() {
  serve::ServerConfig config;
  config.top_n = kTopN;
  // In a closed loop no more requests than clients can be waiting, so a
  // batch is complete once every client's request is in it.
  config.max_batch = kFullClients;
  // Requests take tens of milliseconds; a 2 ms window lets the second
  // client's request join even when its thread wakes late, so batches do
  // not flip between one and two requests from run to run. The window
  // closes as soon as the batch is full.
  config.max_delay_us = 2000;
  config.num_candidates = 0;
  config.warmup = serve::ServerConfig::Warmup::kFull;
  return config;
}

}  // namespace

Result RunServeFullCatalog(const Options& options) {
  Result result;
  Samples stages;
  std::vector<double> setup_s;
  std::unique_ptr<FullCatalogSetup> setup;
  const std::string snapshot = options.work_dir + "/full.srsnap";
  const ModelFactoryConfig factory = SceneRecFactory(SubSeed(options.seed, 2));
  std::vector<FirstAnswer> first_answers;

  // Uniform round-robin users in a seeded order, generated before timing.
  std::vector<int64_t> stream(
      static_cast<size_t>(JdElectronicsWorld().num_users));
  for (size_t u = 0; u < stream.size(); ++u) stream[u] = static_cast<int64_t>(u);
  Rng stream_rng(SubSeed(options.seed, 3));
  stream_rng.Shuffle(stream);

  // Opens the snapshot, publishes it and answers one request for `user`.
  const auto publish = [&](FullCatalogSetup& s, int64_t user, bool start) {
    const double t0 = Now();
    s.live = OpenRecommenderFromSnapshot(snapshot, s.world->context(), factory)
                 .value();
    const double t1 = Now();
    s.server->Publish(s.live);
    if (start) s.server->Start();
    const double t2 = Now();
    FirstAnswer first;
    first.user = user;
    first.ok = s.server->TopN(user, &first.recs);
    const double t3 = Now();
    first_answers.push_back(std::move(first));
    stages.Add("nn.snapshot_open_ms", (t1 - t0) * 1e3);
    stages.Add("serve.publish_ms", (t2 - t1) * 1e3);
    stages.Add("serve.first_response_ms", (t3 - t2) * 1e3);
    stages.Add("publish_to_first_response_ms", (t3 - t0) * 1e3);
  };

  for (int k = 0; k < kFullSetups; ++k) {
    setup.reset();
    const double t0 = Now();
    setup = std::make_unique<FullCatalogSetup>();
    WorldTimes times;
    setup->world = BuildWorld(JdElectronicsWorld(), SubSeed(options.seed, 1),
                              /*num_negatives=*/100, &times);
    {
      std::unique_ptr<Recommender> model =
          MakeRecommender("SceneRec", setup->world->context(), factory)
              .value();
      const double t1 = Now();
      CheckOk(WriteSnapshot(*model, model->name(), 1, snapshot));
      stages.Add("nn.snapshot_write_ms", (Now() - t1) * 1e3);
    }
    setup->server = std::make_unique<serve::Server>(FullCatalogConfig(),
                                                    setup->world->graph);
    publish(*setup, stream[0], /*start=*/true);
    setup_s.push_back(Now() - t0);
    stages.Add("data.generate_s", times.generate_s);
    stages.Add("data.split_s", times.split_s);
    stages.Add("graph.build_s", times.graph_s);
  }
  World& world = *setup->world;
  serve::Server& server = *setup->server;
  SCENEREC_CHECK_EQ(world.dataset.num_users,
                    static_cast<int64_t>(stream.size()));

  PublishCounters publishes;
  {
    ClosedLoop warmup(server, stream, kFullClients, publishes,
                      /*limit=*/4 * kFullClients);
    warmup.Start();
    warmup.Wait();
  }
  const ServerCounters before = ServerCounters::Read(server);
  ClosedLoop load(server, stream, kFullClients, publishes, /*limit=*/0);
  const double w0 = Now();
  load.Start();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      static_cast<double>(options.seconds)));
  load.Stop();
  const double w1 = Now();
  const double peak_rss = PeakRssMib();
  const ServerCounters after = ServerCounters::Read(server);
  const std::vector<Completed> done = load.Results();
  for (int64_t r = 0; r < load.rejected(); ++r) result.Check(false);

  if (options.traced) {
    ReplayStages(*setup->live, nullptr, world.graph, 0, done,
                 /*max_batches=*/48, &result);
    ReportServerLayers(done, before, after, /*repr_cache=*/false, &result);
  }
  // More publish samples, on the now idle server.
  for (int k = 0; k < kRepublishes; ++k) {
    publish(*setup, stream[static_cast<size_t>(k + 1)], /*start=*/false);
  }
  server.Stop();

  result.E2e("setup_s", Median(setup_s), "s");
  ReportWindow(done, w0, w1, &result);
  result.E2e("publish_to_first_response_ms",
             stages.InterquartileMean("publish_to_first_response_ms"), "ms");
  result.E2e("peak_rss_mib", peak_rss, "MiB");

  // Output checks: an independently opened copy of the snapshot answers
  // the checked users through TopNRecommendations.
  std::unique_ptr<Recommender> reference =
      OpenRecommenderFromSnapshot(snapshot, world.context(), factory).value();
  ThreadPool pool(kCheckThreads);
  reference->OnEvalBegin();
  SCENEREC_CHECK(reference->PrepareParallelScoring(pool));

  std::vector<int64_t> checked_users;
  for (size_t p = 0; p < stream.size(); p += kFullCheckEvery) {
    checked_users.push_back(stream[p]);
  }
  for (const FirstAnswer& first : first_answers) {
    checked_users.push_back(first.user);
  }
  std::sort(checked_users.begin(), checked_users.end());
  checked_users.erase(std::unique(checked_users.begin(), checked_users.end()),
                      checked_users.end());
  std::vector<std::vector<Recommendation>> expected(checked_users.size());
  pool.ParallelFor(static_cast<int64_t>(checked_users.size()), 1,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       expected[static_cast<size_t>(i)] = TopNRecommendations(
                           reference->BlockScorer(), world.graph,
                           checked_users[static_cast<size_t>(i)], kTopN);
                     }
                   });
  std::map<int64_t, size_t> slot;
  for (size_t i = 0; i < checked_users.size(); ++i) slot[checked_users[i]] = i;
  if (options.corrupt_expectation) {
    CorruptForSelfTest(&expected[slot.at(first_answers[0].user)]);
  }

  int64_t compared = 0;
  for (const FirstAnswer& first : first_answers) {
    ++compared;
    result.Check(first.ok &&
                 SameRecommendations(first.recs, expected[slot.at(first.user)]));
  }
  for (const Completed& c : done) {
    auto it = slot.find(c.user);
    const bool checked = it != slot.end();
    if (checked) ++compared;
    result.Check(!checked || SameRecommendations(c.recs, expected[it->second]));
  }

  result.notes.push_back(StrFormat(
      "checked %lld responses bitwise against TopNRecommendations (%zu users)",
      static_cast<long long>(compared), checked_users.size()));

  for (const char* name :
       {"data.generate_s", "data.split_s", "graph.build_s"}) {
    result.Layer(name, stages.Median(name), "s");
  }
  for (const char* name : {"nn.snapshot_write_ms", "nn.snapshot_open_ms",
                           "serve.publish_ms", "serve.first_response_ms"}) {
    result.Layer(name, stages.Median(name), "ms");
  }
  std::filesystem::remove(snapshot);
  return result;
}

// -- serve_two_stage_swap ------------------------------------------------------
//
// 32,768 users x 32,768 items, SceneRec d=64, exact index with 50
// candidates, lazy warm-up with a user-repr cache of 10% of users, Zipf(1.1)
// users from 3 clients. The main thread hot-swaps between two snapshot
// versions every kPublishEvery requests: open, index build, Publish, then
// one request of its own. The window is whole publish cycles.

namespace {

/// Set-ups per run; setup_s and the set-up stage metrics are medians.
constexpr int kSwapSetups = 3;
constexpr int kSwapClients = 3;
constexpr int64_t kSwapUsers = 32768;
constexpr int64_t kSwapItems = 32768;
constexpr int64_t kSwapCandidates = 50;
constexpr int64_t kPublishEvery = 5000;
constexpr int64_t kSwapStream = 1 << 17;
constexpr int64_t kSwapRecallUsers = 48;

SyntheticConfig SwapWorld() {
  SyntheticConfig config;
  config.name = "swap-world";
  config.num_users = kSwapUsers;
  config.num_items = kSwapItems;
  config.num_categories = 64;
  config.num_scenes = 48;
  config.sessions_per_user = 4;
  config.session_length = 5;
  return config;
}

serve::ServerConfig SwapConfig() {
  serve::ServerConfig config;
  config.top_n = kTopN;
  config.max_batch = kSwapClients;
  config.num_candidates = kSwapCandidates;
  config.warmup = serve::ServerConfig::Warmup::kLazy;
  config.user_cache_entries = kSwapUsers / 10;
  return config;
}

struct SwapSetup {
  std::unique_ptr<World> world;
  std::unique_ptr<serve::Server> server;
  std::shared_ptr<Recommender> live;
  std::shared_ptr<const ItemIndex> live_index;
};

struct PublishTiming {
  double open_ms = 0.0;
  double index_ms = 0.0;
  double publish_ms = 0.0;
  double first_ms = 0.0;
  double total_ms = 0.0;
};

}  // namespace

Result RunServeTwoStageSwap(const Options& options) {
  Result result;
  Samples stages;
  std::vector<double> setup_s;
  std::unique_ptr<SwapSetup> setup;
  const std::string snapshots[2] = {options.work_dir + "/swap-a.srsnap",
                                    options.work_dir + "/swap-b.srsnap"};
  const ModelFactoryConfig factories[2] = {
      SceneRecFactory(SubSeed(options.seed, 20)),
      SceneRecFactory(SubSeed(options.seed, 21))};
  PublishCounters publishes;
  // Snapshot version (0 or 1) of every publish, in publish order.
  std::vector<int> version_of;
  // Main-thread requests sent right after each publish.
  std::vector<FirstAnswer> first_answers;

  const auto publish = [&](SwapSetup& s, int version, int64_t first_user,
                           bool start) {
    PublishTiming t;
    publishes.begun.fetch_add(1);
    const double t0 = Now();
    std::shared_ptr<Recommender> model =
        OpenRecommenderFromSnapshot(snapshots[version], s.world->context(),
                                    factories[version])
            .value();
    const double t1 = Now();
    std::shared_ptr<const ItemIndex> index =
        IndexBuilder().Build(*model).value();
    const double t2 = Now();
    s.server->Publish(model, index);
    if (start) s.server->Start();
    const double t3 = Now();
    version_of.push_back(version);
    publishes.done.fetch_add(1);
    FirstAnswer first;
    first.user = first_user;
    first.version = version;
    first.ok = s.server->TopN(first_user, &first.recs);
    const double t4 = Now();
    first_answers.push_back(std::move(first));
    s.live = std::move(model);
    s.live_index = std::move(index);
    t.open_ms = (t1 - t0) * 1e3;
    t.index_ms = (t2 - t1) * 1e3;
    t.publish_ms = (t3 - t2) * 1e3;
    t.first_ms = (t4 - t3) * 1e3;
    t.total_ms = (t4 - t0) * 1e3;
    return t;
  };

  // Zipf(1.1) over users in a seeded popularity order.
  std::vector<int64_t> stream(static_cast<size_t>(kSwapStream));
  {
    std::vector<int64_t> by_rank(static_cast<size_t>(kSwapUsers));
    for (size_t u = 0; u < by_rank.size(); ++u) by_rank[u] = static_cast<int64_t>(u);
    Rng rng(SubSeed(options.seed, 22));
    rng.Shuffle(by_rank);
    ZipfSampler zipf(static_cast<uint64_t>(kSwapUsers), 1.1);
    for (int64_t& u : stream) {
      u = by_rank[static_cast<size_t>(zipf.Sample(rng))];
    }
  }

  for (int k = 0; k < kSwapSetups; ++k) {
    setup.reset();
    publishes.begun.store(0);
    publishes.done.store(0);
    version_of.clear();
    first_answers.clear();
    const double t0 = Now();
    setup = std::make_unique<SwapSetup>();
    WorldTimes times;
    setup->world = BuildWorld(SwapWorld(), SubSeed(options.seed, 23),
                              /*num_negatives=*/5, &times);
    for (int v = 0; v < 2; ++v) {
      std::unique_ptr<Recommender> model =
          MakeRecommender("SceneRec", setup->world->context(), factories[v])
              .value();
      const double t1 = Now();
      CheckOk(WriteSnapshot(*model, model->name(),
                            static_cast<uint64_t>(v + 1), snapshots[v]));
      stages.Add("nn.snapshot_write_ms", (Now() - t1) * 1e3);
    }
    setup->server =
        std::make_unique<serve::Server>(SwapConfig(), setup->world->graph);
    publish(*setup, 0, stream[0], /*start=*/true);
    setup_s.push_back(Now() - t0);
    stages.Add("data.generate_s", times.generate_s);
    stages.Add("data.split_s", times.split_s);
    stages.Add("graph.build_s", times.graph_s);
  }
  World& world = *setup->world;
  serve::Server& server = *setup->server;

  {
    ClosedLoop warmup(server, stream, kSwapClients, publishes,
                      /*limit=*/kPublishEvery / 2);
    warmup.Start();
    warmup.Wait();
  }
  const ServerCounters before = ServerCounters::Read(server);
  std::vector<PublishTiming> window_publishes;
  ClosedLoop load(server, stream, kSwapClients, publishes, /*limit=*/0);
  const double w0 = Now();
  load.Start();
  for (int64_t cycle = 0;; ++cycle) {
    while (load.completed() < cycle * kPublishEvery) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (cycle > 0 && Now() - w0 >= static_cast<double>(options.seconds)) break;
    const int version = static_cast<int>(version_of.size() % 2);
    const int64_t first_user =
        stream[static_cast<size_t>(cycle * 7919) % stream.size()];
    window_publishes.push_back(publish(*setup, version, first_user, false));
  }
  load.Stop();
  const double w1 = Now();
  const double peak_rss = PeakRssMib();
  const ServerCounters after = ServerCounters::Read(server);
  std::vector<Completed> done = load.Results();
  for (int64_t r = 0; r < load.rejected(); ++r) result.Check(false);

  std::vector<double> p2fr;
  for (const PublishTiming& t : window_publishes) {
    p2fr.push_back(t.total_ms);
    stages.Add("nn.snapshot_open_ms", t.open_ms);
    stages.Add("retrieval.index_build_ms", t.index_ms);
    stages.Add("serve.publish_ms", t.publish_ms);
    stages.Add("serve.first_response_ms", t.first_ms);
  }
  result.E2e("setup_s", Median(setup_s), "s");
  ReportWindow(done, w0, w1, &result);
  result.E2e("publish_to_first_response_ms", InterquartileMean(p2fr), "ms");
  result.notes.push_back(StrFormat(
      "%zu publishes in the window, one per %lld requests",
      window_publishes.size(), static_cast<long long>(kPublishEvery)));

  if (options.traced) {
    ReplayStages(*setup->live, setup->live_index.get(), world.graph,
                 kSwapCandidates, done, /*max_batches=*/400, &result);
    ReportServerLayers(done, before, after, /*repr_cache=*/true, &result);
  }
  server.Stop();

  // Output checks: each snapshot version reopened independently answers
  // through TwoStageTopN; a response must equal the answer of a version
  // that was live while it was in flight.
  ThreadPool pool(kCheckThreads);
  std::unique_ptr<Recommender> reference[2];
  std::unique_ptr<ItemIndex> reference_index[2];
  for (int v = 0; v < 2; ++v) {
    reference[v] = OpenRecommenderFromSnapshot(snapshots[v], world.context(),
                                               factories[v])
                       .value();
    reference[v]->OnEvalBegin();
    SCENEREC_CHECK(reference[v]->PrepareParallelScoring(pool));
    reference_index[v] = IndexBuilder().Build(*reference[v]).value();
  }

  // (user, version) pairs that need a reference answer.
  std::set<std::pair<int64_t, int>> needed;
  const auto versions_of = [&](const Completed& c) {
    std::set<int> versions;
    for (int64_t p = std::max<int64_t>(0, c.first_publish);
         p <= c.last_publish && p < static_cast<int64_t>(version_of.size());
         ++p) {
      versions.insert(version_of[static_cast<size_t>(p)]);
    }
    return versions;
  };
  for (const Completed& c : done) {
    for (int v : versions_of(c)) needed.insert({c.user, v});
  }
  for (const FirstAnswer& first : first_answers) {
    needed.insert({first.user, first.version});
  }
  // Recall sample of traced runs: the first distinct users of the stream.
  std::vector<int64_t> recall_users;
  for (size_t i = 0; options.traced && i < stream.size() &&
                     recall_users.size() < static_cast<size_t>(kSwapRecallUsers);
       ++i) {
    if (std::find(recall_users.begin(), recall_users.end(), stream[i]) ==
        recall_users.end()) {
      recall_users.push_back(stream[i]);
    }
  }
  for (int64_t u : recall_users) {
    needed.insert({u, 0});
    needed.insert({u, 1});
  }
  const std::vector<std::pair<int64_t, int>> pairs(needed.begin(),
                                                   needed.end());
  std::vector<std::vector<Recommendation>> expected(pairs.size());
  pool.ParallelFor(static_cast<int64_t>(pairs.size()), 16,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       const auto [user, v] = pairs[static_cast<size_t>(i)];
                       expected[static_cast<size_t>(i)] = TwoStageTopN(
                           *reference[v], *reference_index[v], world.graph,
                           user, kTopN, kSwapCandidates);
                     }
                   });
  std::map<std::pair<int64_t, int>, size_t> slot;
  for (size_t i = 0; i < pairs.size(); ++i) slot[pairs[i]] = i;
  if (options.corrupt_expectation) {
    // A publish's first answer is checked against exactly one version.
    CorruptForSelfTest(
        &expected[slot.at({first_answers[0].user, first_answers[0].version})]);
  }
  const auto matches = [&](int64_t user, const std::set<int>& versions,
                           const std::vector<Recommendation>& recs) {
    for (int v : versions) {
      if (SameRecommendations(recs, expected[slot.at({user, v})])) return true;
    }
    return false;
  };
  int64_t compared = 0;
  for (const FirstAnswer& first : first_answers) {
    ++compared;
    result.Check(first.ok && matches(first.user, {first.version}, first.recs));
  }
  for (const Completed& c : done) {
    ++compared;
    result.Check(matches(c.user, versions_of(c), c.recs));
  }

  result.E2e("peak_rss_mib", peak_rss, "MiB");
  result.notes.push_back(StrFormat(
      "checked %lld responses bitwise against TwoStageTopN (%zu user/version "
      "pairs)",
      static_cast<long long>(compared), pairs.size()));

  // Two-stage top-10 against the exact full-catalog top-10 of the same
  // version, over the recall sample and both versions (traced runs).
  std::vector<double> recall(recall_users.size() * 2);
  pool.ParallelFor(
      static_cast<int64_t>(recall.size()), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t user = recall_users[static_cast<size_t>(i / 2)];
          const int v = static_cast<int>(i % 2);
          recall[static_cast<size_t>(i)] = RecallOf(
              expected[slot.at({user, v})],
              TopNRecommendations(reference[v]->BlockScorer(), world.graph,
                                  user, kTopN));
        }
      });
  if (options.traced) {
    double recall_sum = 0.0;
    for (double r : recall) recall_sum += r;
    result.Layer("retrieval.recall_at_10",
                 recall_sum / static_cast<double>(recall.size()), "ratio");
    result.notes.push_back(StrFormat(
        "recall@10 sample: %zu users x 2 versions", recall_users.size()));
  }

  for (const char* name :
       {"data.generate_s", "data.split_s", "graph.build_s"}) {
    result.Layer(name, stages.Median(name), "s");
  }
  for (const char* name :
       {"nn.snapshot_write_ms", "nn.snapshot_open_ms",
        "retrieval.index_build_ms", "serve.publish_ms",
        "serve.first_response_ms"}) {
    result.Layer(name, stages.Median(name), "ms");
  }
  for (const std::string& path : snapshots) std::filesystem::remove(path);
  return result;
}

}  // namespace perfbench
}  // namespace scenerec
