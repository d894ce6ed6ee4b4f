// scenerec_serve: the always-on Top-N serving daemon (src/serve/server.h,
// docs/serving.md#daemon). Owns a published model (hot-swappable) plus its
// retrieval index and serves concurrent clients through an admission loop
// that coalesces waiting requests into batches.
//
//   scenerec_serve [flags]        train a model on the configured dataset,
//                                 publish it, then drive --requests blocking
//                                 Top-N requests from --clients closed-loop
//                                 threads and report QPS / p50 / p99
//   scenerec_serve --selftest     end-to-end smoke (exit 0 iff PASS): train
//                                 through the snapshot store, serve ~850
//                                 requests from concurrent clients across a
//                                 hot swap onto the newest snapshot opened
//                                 zero-copy, bitwise-checked against
//                                 TopNRecommendations, then clean shutdown
//
// tools/check.sh runs --selftest under the regular, TSan, and ASan gate
// builds. Every other daemon behaviour (retrieval mode, SceneRec, the stats
// socket, SLO, lazy warm-up) is covered by tests/serve_test.cc.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/malloc_tuning.h"
#include "common/repr_cache.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "nn/snapshot.h"
#include "retrieval/index_builder.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "FAIL %s: %s\n", what, status.ToString().c_str());
  return 1;
}

bool SameRecommendations(const std::vector<Recommendation>& a,
                         const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].score != b[i].score) return false;
  }
  return true;
}

/// Parses the --skew flag: "uniform" -> 0 (round-robin users), "zipf:<s>"
/// -> the Zipf exponent s > 0 (rank 0 hottest; see common/rng.h's
/// ZipfSampler). The skewed mix is what makes the demand-paged user cache's
/// hot set meaningful (docs/serving.md#warmup).
StatusOr<double> ParseSkew(const std::string& skew) {
  if (skew == "uniform") return 0.0;
  const std::string prefix = "zipf:";
  if (skew.compare(0, prefix.size(), prefix) == 0) {
    char* end = nullptr;
    const double s = std::strtod(skew.c_str() + prefix.size(), &end);
    if (end != nullptr && *end == '\0' && s > 0.0) return s;
  }
  return Status::InvalidArgument("bad --skew \"" + skew +
                                 "\" (expected uniform | zipf:<s>, s > 0)");
}

// ---------------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------------

/// The selftest's small synthetic dataset and its training graph.
struct SelfTestWorld {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph train_graph;
};

StatusOr<SelfTestWorld> BuildWorld() {
  SelfTestWorld world;
  SyntheticConfig config;
  config.name = "serve-selftest";
  config.num_users = 48;
  config.num_items = 160;
  config.num_categories = 8;
  config.num_scenes = 6;
  config.sessions_per_user = 4;
  config.session_length = 5;
  SCENEREC_ASSIGN_OR_RETURN(world.dataset,
                            GenerateSyntheticDataset(config, 11));
  Rng rng(3);
  SCENEREC_ASSIGN_OR_RETURN(
      world.split,
      MakeLeaveOneOutSplit(world.dataset, /*num_negatives=*/20, rng));
  world.train_graph =
      UserItemGraph::Build(world.dataset.num_users, world.dataset.num_items,
                           world.split.train);
  return world;
}

/// Drives `total` blocking requests against `server` from `clients` threads
/// (users round-robin over the catalog) and checks every result bitwise
/// against `expected_a` or `expected_b` — a request in flight across the
/// hot swap may legally see either version, but never a mixture. Returns
/// false (and prints) on any mismatch or rejected request.
bool DriveAndVerify(serve::Server& server, int64_t num_users, int64_t total,
                    int clients,
                    const std::vector<std::vector<Recommendation>>& expected_a,
                    const std::vector<std::vector<Recommendation>>& expected_b,
                    std::atomic<uint64_t>* matched_a,
                    std::atomic<uint64_t>* matched_b) {
  std::atomic<int64_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1, std::memory_order_relaxed);
        if (seq >= total) break;
        const int64_t user = seq % num_users;
        if (!server.TopN(user, &got)) {
          std::fprintf(stderr, "FAIL request %lld rejected\n",
                       static_cast<long long>(seq));
          ok.store(false, std::memory_order_relaxed);
          break;
        }
        const size_t u = static_cast<size_t>(user);
        if (SameRecommendations(got, expected_a[u])) {
          matched_a->fetch_add(1, std::memory_order_relaxed);
        } else if (SameRecommendations(got, expected_b[u])) {
          matched_b->fetch_add(1, std::memory_order_relaxed);
        } else {
          std::fprintf(stderr,
                       "FAIL user %lld: daemon result matches neither "
                       "version's library result\n",
                       static_cast<long long>(user));
          ok.store(false, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

int SelfTest(std::string dir) {
  constexpr int64_t kTopN = 10;
  constexpr int kClients = 4;

  if (dir.empty()) {
    char tmpl[] = "/tmp/scenerec_serve_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "FAIL cannot create temp dir\n");
      return 1;
    }
    dir = tmpl;
  }

  auto world_or = BuildWorld();
  if (!world_or.ok()) return Fail("world", world_or.status());
  SelfTestWorld world = std::move(world_or).value();
  const int64_t num_users = world.dataset.num_users;

  // Model A: BPR-MF trained 2 epochs with versioned snapshots. Model B:
  // the newest snapshot reopened zero-copy, then A trains one MORE epoch so
  // the two versions genuinely differ — a swap that cannot be observed
  // verifies nothing.
  ModelContext context;
  context.user_item = &world.train_graph;
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 16;
  auto model_or = MakeRecommender("BPR-MF", context, factory_config);
  if (!model_or.ok()) return Fail("factory", model_or.status());
  std::shared_ptr<Recommender> model_a = std::move(model_or).value();

  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.patience = 0;
  train_config.snapshot_dir = dir;
  train_config.snapshot_retain = 2;
  auto result_or =
      TrainAndEvaluate(*model_a, world.split, world.train_graph, train_config);
  if (!result_or.ok()) return Fail("train", result_or.status());

  SnapshotStore store(dir, train_config.snapshot_retain);
  auto latest_or = store.LatestPath();
  if (!latest_or.ok()) return Fail("latest", latest_or.status());
  auto mapped_or =
      OpenRecommenderFromSnapshot(latest_or.value(), context, factory_config);
  if (!mapped_or.ok()) return Fail("open", mapped_or.status());
  std::shared_ptr<Recommender> model_b = std::move(mapped_or).value();

  TrainConfig extra_config;
  extra_config.epochs = 1;
  extra_config.patience = 0;
  if (auto extra_or = TrainAndEvaluate(*model_a, world.split,
                                       world.train_graph, extra_config);
      !extra_or.ok()) {
    return Fail("extra epoch", extra_or.status());
  }

  // Library-path ground truth for both versions, full catalog.
  model_a->OnEvalBegin();
  model_b->OnEvalBegin();
  std::vector<std::vector<Recommendation>> expected_a(
      static_cast<size_t>(num_users));
  std::vector<std::vector<Recommendation>> expected_b(
      static_cast<size_t>(num_users));
  for (int64_t u = 0; u < num_users; ++u) {
    expected_a[static_cast<size_t>(u)] = TopNRecommendations(
        model_a->BlockScorer(), world.train_graph, u, kTopN);
    expected_b[static_cast<size_t>(u)] = TopNRecommendations(
        model_b->BlockScorer(), world.train_graph, u, kTopN);
  }
  bool versions_differ = false;
  for (int64_t u = 0; u < num_users && !versions_differ; ++u) {
    versions_differ = !SameRecommendations(expected_a[static_cast<size_t>(u)],
                                           expected_b[static_cast<size_t>(u)]);
  }
  if (!versions_differ) {
    std::fprintf(stderr, "FAIL versions A and B serve identical results — "
                         "the swap check would be vacuous\n");
    return 1;
  }

  // The full-catalog daemon, hot swap onto the snapshot under live traffic.
  {
    serve::ServerConfig config;
    config.top_n = kTopN;
    config.max_batch = 8;
    config.max_delay_us = 200;
    config.queue_capacity = 32;
    serve::Server server(config, world.train_graph);
    server.Publish(model_a);
    server.Start();

    std::atomic<uint64_t> matched_a{0};
    std::atomic<uint64_t> matched_b{0};
    std::thread swapper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      server.Publish(model_b);
    });
    bool ok = DriveAndVerify(server, num_users, /*total=*/800, kClients,
                             expected_a, expected_b, &matched_a, &matched_b);
    swapper.join();
    if (!ok) return 1;
    // The swap has retired version A; everything from here on MUST be B.
    std::vector<Recommendation> got;
    for (int64_t u = 0; u < num_users; ++u) {
      if (!server.TopN(u, &got)) {
        std::fprintf(stderr, "FAIL post-swap request rejected\n");
        return 1;
      }
      if (!SameRecommendations(got, expected_b[static_cast<size_t>(u)])) {
        std::fprintf(stderr,
                     "FAIL post-swap result for user %lld is not version B\n",
                     static_cast<long long>(u));
        return 1;
      }
    }
    server.Stop();
    if (server.TopN(0, &got)) {
      std::fprintf(stderr, "FAIL request accepted after Stop\n");
      return 1;
    }
    const serve::Server::Stats stats = server.stats();
    if (stats.requests != 800 + static_cast<uint64_t>(num_users) ||
        stats.rejected != 1 || stats.publishes != 2) {
      std::fprintf(stderr,
                   "FAIL stats: requests=%llu rejected=%llu publishes=%llu\n",
                   static_cast<unsigned long long>(stats.requests),
                   static_cast<unsigned long long>(stats.rejected),
                   static_cast<unsigned long long>(stats.publishes));
      return 1;
    }
    std::printf(
        "full-catalog: %llu requests bitwise-verified across a live swap "
        "(A=%llu B=%llu, %llu batches, largest %llu)\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(matched_a.load()),
        static_cast<unsigned long long>(matched_b.load()),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.max_batch));
  }

  std::printf("PASS\n");
  return 0;
}

// ---------------------------------------------------------------------------
// demo / load-driver mode
// ---------------------------------------------------------------------------

int Serve(const FlagParser& flags) {
  // Serving flags are checked before the dataset is generated and the model
  // trained, so a bad value fails at once and names its flag.
  serve::ServerConfig config;
  config.top_n = flags.GetInt64("top_n");
  config.max_batch = flags.GetInt64("max_batch");
  config.max_delay_us = flags.GetInt64("max_delay_us");
  config.queue_capacity = flags.GetInt64("queue_capacity");
  config.num_candidates = flags.GetInt64("candidates");
  config.stats_socket = flags.GetString("stats_socket");
  config.stats_window_ms = flags.GetInt64("stats_window_ms");
  config.slo_target_p99_us = flags.GetInt64("slo_p99_us");
  const std::string warmup = flags.GetString("warmup");
  if (warmup == "lazy") {
    config.warmup = serve::ServerConfig::Warmup::kLazy;
  } else if (warmup != "full") {
    std::fprintf(stderr, "bad --warmup \"%s\" (expected full | lazy)\n",
                 warmup.c_str());
    return 1;
  }
  config.user_cache_entries = flags.GetInt64("user_cache_entries");
  if (Status s = serve::ValidateServerConfig(config); !s.ok()) {
    return Fail("serving flags", s);
  }
  for (const char* name : {"clients", "requests"}) {
    if (const int64_t value = flags.GetInt64(name); value < 1) {
      return Fail("serving flags",
                  Status::InvalidArgument("--" + std::string(name) +
                                          " must be >= 1 (got " +
                                          std::to_string(value) + ")"));
    }
  }
  const int64_t clients = flags.GetInt64("clients");
  // Traffic mix: round-robin (uniform) or a pre-sampled Zipf sequence —
  // the skewed mix is what gives the demand-paged cache a hot set to keep.
  auto skew_or = ParseSkew(flags.GetString("skew"));
  if (!skew_or.ok()) return Fail("skew", skew_or.status());
  const double zipf_s = skew_or.value();

  JdPreset preset = JdPreset::kElectronics;
  bool found = false;
  for (JdPreset p : AllJdPresets()) {
    if (flags.GetString("dataset") == JdPresetName(p)) {
      preset = p;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown dataset preset: %s\n",
                 flags.GetString("dataset").c_str());
    return 1;
  }
  const uint64_t data_seed = static_cast<uint64_t>(flags.GetInt64("data_seed"));
  auto dataset_or = GenerateSyntheticDataset(
      MakeJdConfig(preset, flags.GetDouble("scale")), data_seed);
  if (!dataset_or.ok()) return Fail("dataset", dataset_or.status());
  const Dataset dataset = std::move(dataset_or).value();
  Rng split_rng(data_seed ^ 0x9e3779b97f4a7c15ULL);
  auto split_or = MakeLeaveOneOutSplit(dataset, /*num_negatives=*/100,
                                       split_rng);
  if (!split_or.ok()) return Fail("split", split_or.status());
  const LeaveOneOutSplit split = std::move(split_or).value();
  const UserItemGraph train_graph =
      UserItemGraph::Build(dataset.num_users, dataset.num_items, split.train);
  const SceneGraph scene_graph = dataset.BuildSceneGraph();

  ModelContext context;
  context.user_item = &train_graph;
  context.scene = &scene_graph;
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = flags.GetInt64("dim");
  factory_config.seed = data_seed + 17;
  auto model_or =
      MakeRecommender(flags.GetString("model"), context, factory_config);
  if (!model_or.ok()) return Fail("factory", model_or.status());
  std::shared_ptr<Recommender> model = std::move(model_or).value();

  TrainConfig train_config;
  train_config.epochs = flags.GetInt64("epochs");
  train_config.patience = 0;
  train_config.snapshot_dir = flags.GetString("snapshot_dir");
  auto result_or = TrainAndEvaluate(*model, split, train_graph, train_config);
  if (!result_or.ok()) return Fail("train", result_or.status());

  // With a snapshot dir, serve the newest snapshot zero-copy (the daemon's
  // production shape: the trainer writes versions, the server maps them).
  if (!train_config.snapshot_dir.empty()) {
    SnapshotStore store(train_config.snapshot_dir, /*retain=*/3);
    auto latest_or = store.LatestPath();
    if (!latest_or.ok()) return Fail("latest snapshot", latest_or.status());
    auto mapped_or =
        OpenRecommenderFromSnapshot(latest_or.value(), context,
                                    factory_config);
    if (!mapped_or.ok()) return Fail("open snapshot", mapped_or.status());
    model = std::move(mapped_or).value();
    std::printf("serving snapshot %s (zero-copy)\n", latest_or.value().c_str());
  }

  if (!config.stats_socket.empty()) {
    std::printf("stats socket: %s (scrape with scenerec_stat --socket=%s)\n",
                config.stats_socket.c_str(), config.stats_socket.c_str());
  }

  std::shared_ptr<const ItemIndex> index;
  if (config.num_candidates > 0) {
    auto kind_or = ParseIndexKind(flags.GetString("retrieval"));
    if (!kind_or.ok()) return Fail("retrieval kind", kind_or.status());
    IndexBuildConfig index_config;
    index_config.kind = kind_or.value();
    model->OnEvalBegin();
    auto index_or = IndexBuilder(index_config).Build(*model);
    if (!index_or.ok()) return Fail("index build", index_or.status());
    index = std::move(index_or).value();
  }

  serve::Server server(config, train_graph);
  server.Publish(model, index);
  server.Start();

  const int64_t total = flags.GetInt64("requests");
  std::vector<int64_t> user_seq;
  if (zipf_s > 0.0) {
    ZipfSampler zipf(static_cast<uint64_t>(dataset.num_users), zipf_s);
    Rng skew_rng(data_seed ^ 0x5bf03635ULL);
    user_seq.resize(static_cast<size_t>(total));
    for (int64_t& u : user_seq) {
      u = static_cast<int64_t>(zipf.Sample(skew_rng));
    }
  }

  std::atomic<int64_t> next{0};
  std::atomic<bool> ok{true};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1, std::memory_order_relaxed);
        if (seq >= total) break;
        const int64_t user = user_seq.empty()
                                 ? seq % dataset.num_users
                                 : user_seq[static_cast<size_t>(seq)];
        if (!server.TopN(user, &got)) {
          ok.store(false, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();
  if (!ok.load()) {
    std::fprintf(stderr, "FAIL a request was rejected\n");
    return 1;
  }

  const serve::Server::Stats stats = server.stats();
  std::printf("%lld requests in %.3fs: %.0f QPS (%lld clients, batch<=%lld, "
              "delay %lldus)\n",
              static_cast<long long>(total), seconds,
              static_cast<double>(total) / seconds,
              static_cast<long long>(clients),
              static_cast<long long>(config.max_batch),
              static_cast<long long>(config.max_delay_us));
  std::printf("  batches %llu (largest %llu), rows scored %llu, swaps %llu\n",
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch),
              static_cast<unsigned long long>(stats.rows_scored),
              static_cast<unsigned long long>(stats.publishes));
  if (config.warmup == serve::ServerConfig::Warmup::kLazy) {
    const ReprCache::Stats cache = server.user_cache_stats();
    const uint64_t lookups = cache.hits + cache.misses;
    std::printf(
        "  repr cache: %lld/%lld entries resident (%.1f MiB of %.1f MiB), "
        "hit rate %.1f%%, %llu evictions\n",
        static_cast<long long>(cache.entries),
        static_cast<long long>(config.user_cache_entries),
        static_cast<double>(cache.bytes) / (1024.0 * 1024.0),
        static_cast<double>(cache.capacity_bytes) / (1024.0 * 1024.0),
        lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(cache.hits) /
                           static_cast<double>(lookups),
        static_cast<unsigned long long>(cache.evictions));
  }
  const telemetry::TelemetrySnapshot snapshot =
      telemetry::Telemetry::Snapshot();
  if (const auto* hist = snapshot.FindHistogram("serve/request_ns")) {
    std::printf("  latency p50 %.0fus p99 %.0fus max %.0fus\n",
                hist->data.Percentile(0.5) / 1000.0,
                hist->data.Percentile(0.99) / 1000.0,
                static_cast<double>(hist->data.max) / 1000.0);
  }
  return 0;
}

int Run(int argc, char** argv) {
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddBool("selftest", false,
                "run the end-to-end daemon smoke test and exit (0 iff PASS)");
  flags.AddString("model", "SceneRec", "model name (see models/factory.h)");
  flags.AddString("dataset", "Electronics", "JD synthetic preset");
  flags.AddDouble("scale", 0.02, "synthetic dataset scale");
  flags.AddInt64("data_seed", 42, "dataset + split seed");
  flags.AddInt64("dim", 32, "embedding dimension");
  flags.AddInt64("epochs", 2, "training epochs before serving");
  flags.AddInt64("top_n", 10, "recommendations per request");
  flags.AddInt64("max_batch", 32, "max requests coalesced per batch");
  flags.AddInt64("max_delay_us", 200, "admission window after first request");
  flags.AddInt64("queue_capacity", 256, "request queue bound (backpressure)");
  flags.AddInt64("candidates", 0,
                 "0 = full-catalog scoring; >0 = two-stage retrieval with "
                 "this candidate budget");
  flags.AddString("retrieval", "exact",
                  "index kind for --candidates: exact | ivf");
  flags.AddInt64("requests", 2000, "requests the load driver issues");
  flags.AddInt64("clients", 4, "closed-loop client threads");
  flags.AddString("warmup", "full",
                  "publish warm-up mode: full = precompute every user "
                  "representation at swap time; lazy = demand-paged user "
                  "cache, O(items) swaps (docs/serving.md#warmup)");
  flags.AddInt64("user_cache_entries", 65536,
                 "capacity of the demand-paged user-representation cache "
                 "(--warmup=lazy only)");
  flags.AddString("skew", "uniform",
                  "load-driver traffic mix: uniform (round-robin users) | "
                  "zipf:<s> (rank-0-hottest Zipf with exponent s)");
  flags.AddImplicitString("stats_socket", "", "/tmp/scenerec.sock",
                          "serve the live stats endpoint on this unix "
                          "socket; bare flag uses the default path "
                          "(scrape with scenerec_stat)");
  flags.AddInt64("stats_window_ms", 1000,
                 "rolling-window resolution of the stats endpoint");
  flags.AddInt64("slo_p99_us", 0,
                 "request p99 SLO target in microseconds (0 = no SLO); "
                 "healthz degrades when breached");
  flags.AddImplicitString("snapshot_dir", "", "/tmp/scenerec_serve_snapshots",
                          "write training snapshots here and serve the "
                          "newest one zero-copy; bare flag uses the default "
                          "path");
  flags.AddImplicitString("telemetry", "", "-",
                          "collect runtime telemetry; bare dumps JSON to "
                          "stdout at exit, =path.json writes a file");
  flags.AddImplicitString("trace", "", "-",
                          "record a span timeline; bare dumps to stdout at "
                          "exit, =path.json writes a file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  // The daemon's latency histogram IS its product; telemetry stays on even
  // without a sink so the QPS/percentile report always has data.
  telemetry::Telemetry::SetEnabled(true);
  const std::string telemetry_sink = flags.GetString("telemetry");
  const std::string trace_sink = flags.GetString("trace");
  if (!trace_sink.empty()) trace::Trace::Start();

  int code;
  if (flags.GetBool("selftest")) {
    code = SelfTest(flags.positional().empty() ? "" : flags.positional()[0]);
  } else {
    code = Serve(flags);
  }

  if (!telemetry_sink.empty()) {
    if (telemetry_sink == "-") {
      std::printf("%s\n", telemetry::Telemetry::ToJson().c_str());
    } else if (Status s = telemetry::Telemetry::WriteJsonFile(telemetry_sink);
               !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!trace_sink.empty()) {
    if (trace_sink == "-") {
      std::printf("%s\n", trace::Trace::ToChromeJson().c_str());
    } else if (Status s = trace::Trace::WriteChromeTrace(trace_sink);
               !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace scenerec

int main(int argc, char** argv) { return scenerec::Run(argc, argv); }
