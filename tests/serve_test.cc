// Tests for the serving daemon (src/serve/server.h, docs/serving.md#daemon)
// and its MPMC admission queue (src/common/mpmc_queue.h): queue semantics
// under concurrency and shutdown, bitwise identity of daemon results
// against the library serving paths — with coalescing on and off, from
// concurrent clients — hot swap under live traffic (full-catalog and
// retrieval mode, where model and index must swap as one unit), and clean
// stop semantics. tools/check.sh runs this binary under TSan and ASan.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "common/socket_server.h"
#include "common/telemetry.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"
#include "serve/observe.h"
#include "serve/server.h"

namespace scenerec {
namespace {

// -- MpmcQueue -----------------------------------------------------------------

TEST(MpmcQueueTest, FifoOrderAndSize) {
  MpmcQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.size(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(MpmcQueueTest, CloseRejectsPushesAndDrainsAcceptedItems) {
  MpmcQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(3));
  // Accepted work survives the close; only then does Pop report shutdown.
  int v = -1;
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));
  q.Close();  // idempotent
}

TEST(MpmcQueueTest, PopUntilTimesOutOnEmptyQueue) {
  MpmcQueue<int> q(2);
  int v = -1;
  EXPECT_FALSE(q.PopUntil(&v, std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(5)));
  ASSERT_TRUE(q.Push(7));
  EXPECT_TRUE(q.PopUntil(&v, std::chrono::steady_clock::now()));
  EXPECT_EQ(v, 7);
}

TEST(MpmcQueueTest, BackpressureBlocksProducerUntilConsumerPops) {
  MpmcQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(2));
    second_pushed.store(true);
  });
  // The queue is full: the producer must still be blocked in Push.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  int v = -1;
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
}

TEST(MpmcQueueTest, ConcurrentProducersAndConsumersDeliverEachItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  MpmcQueue<int> q(16);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s.store(0);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = -1;
      while (q.Pop(&v)) seen[static_cast<size_t>(v)].fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  q.Close();
  for (std::thread& t : consumers) t.join();
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// -- Serving daemon ------------------------------------------------------------

constexpr int64_t kTopN = 8;
constexpr int64_t kCandidates = 16;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "serve-test";
    config.num_users = 40;
    config.num_items = 160;
    config.num_categories = 6;
    config.num_scenes = 5;
    config.sessions_per_user = 4;
    config.session_length = 5;
    auto dataset = GenerateSyntheticDataset(config, 77);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    Rng rng(3);
    auto split = MakeLeaveOneOutSplit(dataset_, /*num_negatives=*/10, rng);
    ASSERT_TRUE(split.ok());
    split_ = std::move(split).value();
    graph_ = UserItemGraph::Build(dataset_.num_users, dataset_.num_items,
                                  split_.train);
    scene_graph_ = dataset_.BuildSceneGraph();
  }

  /// Distinct seeds give genuinely different parameters — a hot swap
  /// between them is observable in every user's Top-N list.
  std::shared_ptr<Recommender> MakeModel(const std::string& name,
                                         uint64_t seed) {
    ModelContext context;
    context.user_item = &graph_;
    context.scene = &scene_graph_;
    ModelFactoryConfig config;
    config.embedding_dim = 16;
    config.max_neighbors = 8;
    config.seed = seed;
    auto model = MakeRecommender(name, context, config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) return nullptr;
    std::shared_ptr<Recommender> shared = std::move(model).value();
    shared->OnEvalBegin();
    return shared;
  }

  std::vector<std::vector<Recommendation>> FullCatalogExpected(
      Recommender& model) const {
    std::vector<std::vector<Recommendation>> expected(
        static_cast<size_t>(dataset_.num_users));
    for (int64_t u = 0; u < dataset_.num_users; ++u) {
      expected[static_cast<size_t>(u)] =
          TopNRecommendations(model.BlockScorer(), graph_, u, kTopN);
    }
    return expected;
  }

  std::vector<std::vector<Recommendation>> RetrievalExpected(
      Recommender& model, const ItemIndex& index) const {
    std::vector<std::vector<Recommendation>> expected(
        static_cast<size_t>(dataset_.num_users));
    for (int64_t u = 0; u < dataset_.num_users; ++u) {
      expected[static_cast<size_t>(u)] = TwoStageTopN(
          model, index, graph_, u, kTopN, kCandidates);
    }
    return expected;
  }

  static void ExpectSameList(const std::vector<Recommendation>& got,
                             const std::vector<Recommendation>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].item, want[i].item) << "rank " << i;
      ASSERT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
  }

  /// Drives every user `rounds` times from `threads` concurrent clients,
  /// checking each result bitwise against `expected`.
  void Drive(serve::Server& server, int threads, int rounds,
             const std::vector<std::vector<Recommendation>>& expected) {
    const int64_t total = dataset_.num_users * rounds;
    std::atomic<int64_t> next{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; ++t) {
      clients.emplace_back([&] {
        std::vector<Recommendation> got;
        for (;;) {
          const int64_t seq = next.fetch_add(1);
          if (seq >= total) break;
          const int64_t user = seq % dataset_.num_users;
          ASSERT_TRUE(server.TopN(user, &got));
          ExpectSameList(got, expected[static_cast<size_t>(user)]);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  static serve::ServerConfig Config(int64_t max_batch,
                                    int64_t num_candidates) {
    serve::ServerConfig config;
    config.top_n = kTopN;
    config.max_batch = max_batch;
    config.max_delay_us = 100;
    config.queue_capacity = 32;
    config.num_candidates = num_candidates;
    return config;
  }

  Dataset dataset_;
  LeaveOneOutSplit split_;
  UserItemGraph graph_;
  SceneGraph scene_graph_;
};

// Coalescing must be invisible in results: per-request (max_batch=1) and
// batched admission, driven by concurrent clients, both return exactly the
// library path's lists for every user. Covers the daemon's flattening of
// several users' rows into shared ScoreRows calls, for SceneRec's
// factorized head and for BPR-MF.
TEST_F(ServeTest, FullCatalogBitwiseMatchesLibraryForBatchedAndSequential) {
  for (const char* name : {"BPR-MF", "SceneRec"}) {
    SCOPED_TRACE(name);
    std::shared_ptr<Recommender> model = MakeModel(name, 11);
    ASSERT_NE(model, nullptr);
    const auto expected = FullCatalogExpected(*model);
    for (int64_t max_batch : {int64_t{1}, int64_t{8}}) {
      SCOPED_TRACE("max_batch=" + std::to_string(max_batch));
      serve::Server server(Config(max_batch, 0), graph_);
      server.Publish(model);
      server.Start();
      Drive(server, /*threads=*/4, /*rounds=*/3, expected);
      server.Stop();
      const serve::Server::Stats stats = server.stats();
      EXPECT_EQ(stats.requests, static_cast<uint64_t>(
          dataset_.num_users * 3));
      EXPECT_EQ(stats.rejected, 0u);
      if (max_batch == 1) {
        EXPECT_EQ(stats.max_batch, 1u);
      } else {
        EXPECT_LE(stats.max_batch, 8u);
      }
    }
  }
}

// Retrieval mode: one MultiSearch sweep per coalesced batch must still
// produce TwoStageTopN's exact lists.
TEST_F(ServeTest, RetrievalModeBitwiseMatchesTwoStageTopN) {
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 12);
  ASSERT_NE(model, nullptr);
  auto index_or = IndexBuilder().Build(*model);
  ASSERT_TRUE(index_or.ok());
  std::shared_ptr<const ItemIndex> index = std::move(index_or).value();
  const auto expected = RetrievalExpected(*model, *index);
  for (int64_t max_batch : {int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE("max_batch=" + std::to_string(max_batch));
    serve::Server server(Config(max_batch, kCandidates), graph_);
    server.Publish(model, index);
    server.Start();
    Drive(server, /*threads=*/4, /*rounds=*/3, expected);
    server.Stop();
  }
}

// Hot swap under live traffic: every in-flight result must be ENTIRELY
// version A or ENTIRELY version B (each request's list equals one of the
// two library lists bit-for-bit — a torn batch would match neither), and
// once the publish has happened requests eventually settle on B.
TEST_F(ServeTest, HotSwapUnderLiveTrafficNeverTearsResults) {
  std::shared_ptr<Recommender> model_a = MakeModel("BPR-MF", 21);
  std::shared_ptr<Recommender> model_b = MakeModel("BPR-MF", 22);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);
  const auto expected_a = FullCatalogExpected(*model_a);
  const auto expected_b = FullCatalogExpected(*model_b);
  // The swap must be observable, or the test is vacuous.
  bool differs = false;
  for (int64_t u = 0; u < dataset_.num_users && !differs; ++u) {
    const auto& a = expected_a[static_cast<size_t>(u)];
    const auto& b = expected_b[static_cast<size_t>(u)];
    if (a.size() != b.size()) { differs = true; break; }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].item != b[i].item || a[i].score != b[i].score) {
        differs = true;
        break;
      }
    }
  }
  ASSERT_TRUE(differs);

  auto matches = [](const std::vector<Recommendation>& got,
                    const std::vector<Recommendation>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].item != want[i].item || got[i].score != want[i].score) {
        return false;
      }
    }
    return true;
  };

  serve::Server server(Config(/*max_batch=*/4, 0), graph_);
  server.Publish(model_a);
  server.Start();

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> version_a_hits{0};
  std::atomic<int64_t> version_b_hits{0};
  const int64_t total = dataset_.num_users * 10;
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1);
        if (seq >= total) break;
        const int64_t user = seq % dataset_.num_users;
        ASSERT_TRUE(server.TopN(user, &got));
        const bool is_a = matches(got, expected_a[static_cast<size_t>(user)]);
        const bool is_b = matches(got, expected_b[static_cast<size_t>(user)]);
        ASSERT_TRUE(is_a || is_b) << "torn result for user " << user;
        (is_a ? version_a_hits : version_b_hits).fetch_add(1);
      }
    });
  }
  // Swap mid-traffic, from yet another thread (Publish is thread-safe).
  std::thread publisher([&] {
    while (next.load() < total / 4) std::this_thread::yield();
    server.Publish(model_b);
  });
  publisher.join();
  for (std::thread& t : clients) t.join();

  // After the swap has drained, serving is pure B.
  std::vector<Recommendation> got;
  for (int64_t u = 0; u < dataset_.num_users; ++u) {
    ASSERT_TRUE(server.TopN(u, &got));
    ExpectSameList(got, expected_b[static_cast<size_t>(u)]);
  }
  server.Stop();
  EXPECT_EQ(server.stats().publishes, 2u);
  EXPECT_GT(version_b_hits.load(), 0);
  EXPECT_EQ(version_a_hits.load() + version_b_hits.load(), total);
}

// Retrieval-mode swap: model and index swap as ONE unit. Pairing model B
// with index A (or vice versa) would produce lists matching neither
// library path; every result must be pure A or pure B here too.
TEST_F(ServeTest, RetrievalHotSwapKeepsModelAndIndexPaired) {
  std::shared_ptr<Recommender> model_a = MakeModel("BPR-MF", 31);
  std::shared_ptr<Recommender> model_b = MakeModel("BPR-MF", 32);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);
  auto index_a_or = IndexBuilder().Build(*model_a);
  auto index_b_or = IndexBuilder().Build(*model_b);
  ASSERT_TRUE(index_a_or.ok());
  ASSERT_TRUE(index_b_or.ok());
  std::shared_ptr<const ItemIndex> index_a = std::move(index_a_or).value();
  std::shared_ptr<const ItemIndex> index_b = std::move(index_b_or).value();
  const auto expected_a = RetrievalExpected(*model_a, *index_a);
  const auto expected_b = RetrievalExpected(*model_b, *index_b);

  auto matches = [](const std::vector<Recommendation>& got,
                    const std::vector<Recommendation>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].item != want[i].item || got[i].score != want[i].score) {
        return false;
      }
    }
    return true;
  };

  serve::Server server(Config(/*max_batch=*/4, kCandidates), graph_);
  server.Publish(model_a, index_a);
  server.Start();
  std::atomic<int64_t> next{0};
  const int64_t total = dataset_.num_users * 8;
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1);
        if (seq >= total) break;
        const int64_t user = seq % dataset_.num_users;
        ASSERT_TRUE(server.TopN(user, &got));
        ASSERT_TRUE(matches(got, expected_a[static_cast<size_t>(user)]) ||
                    matches(got, expected_b[static_cast<size_t>(user)]))
            << "torn model/index pairing for user " << user;
      }
    });
  }
  std::thread publisher([&] {
    while (next.load() < total / 4) std::this_thread::yield();
    server.Publish(model_b, index_b);
  });
  publisher.join();
  for (std::thread& t : clients) t.join();
  std::vector<Recommendation> got;
  for (int64_t u = 0; u < dataset_.num_users; ++u) {
    ASSERT_TRUE(server.TopN(u, &got));
    ExpectSameList(got, expected_b[static_cast<size_t>(u)]);
  }
  server.Stop();
}

TEST_F(ServeTest, StopDrainsAcceptedRequestsThenRejects) {
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 41);
  ASSERT_NE(model, nullptr);
  const auto expected = FullCatalogExpected(*model);
  serve::Server server(Config(/*max_batch=*/4, 0), graph_);
  server.Publish(model);
  server.Start();
  Drive(server, /*threads=*/2, /*rounds=*/1, expected);
  server.Stop();
  // Stop is idempotent and post-stop requests are rejected with *out
  // untouched.
  server.Stop();
  std::vector<Recommendation> got = {{123, 4.5f}};
  EXPECT_FALSE(server.TopN(0, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 123);
  EXPECT_EQ(server.stats().rejected, 1u);
}

// An out-of-range user is refused at admission, in both modes: TopN
// returns false with *out untouched, the id never reaches the candidate
// builders' range checks on the admission thread (which would abort the
// daemon), the refusal is counted, and the daemon keeps serving — the next
// valid request is bitwise the library answer.
TEST_F(ServeTest, OutOfRangeUserIsRefusedAndTheDaemonKeepsServing) {
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(true);
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 43);
  ASSERT_NE(model, nullptr);
  auto index_or = IndexBuilder().Build(*model);
  ASSERT_TRUE(index_or.ok());
  std::shared_ptr<const ItemIndex> index = std::move(index_or).value();
  const auto full_catalog = FullCatalogExpected(*model);
  const auto retrieval = RetrievalExpected(*model, *index);
  uint64_t refused = 0;
  for (const int64_t num_candidates : {int64_t{0}, kCandidates}) {
    SCOPED_TRACE("num_candidates=" + std::to_string(num_candidates));
    const auto& expected = num_candidates == 0 ? full_catalog : retrieval;
    serve::Server server(Config(/*max_batch=*/4, num_candidates), graph_);
    server.Publish(model, index);
    server.Start();
    for (const int64_t bad : {int64_t{-1}, dataset_.num_users}) {
      std::vector<Recommendation> got = {{123, 4.5f}};
      EXPECT_FALSE(server.TopN(bad, &got)) << "user " << bad;
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].item, 123);
      EXPECT_EQ(got[0].score, 4.5f);
      refused += 1;
      const int64_t user = dataset_.num_users - 1;
      ASSERT_TRUE(server.TopN(user, &got));
      ExpectSameList(got, expected[static_cast<size_t>(user)]);
    }
    server.Stop();
    const serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.invalid_users, 2u);
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.rejected, 0u);
  }
  EXPECT_EQ(telemetry::Telemetry::Snapshot().CounterValue(
                "serve/daemon_invalid_users"),
            refused);
  telemetry::Telemetry::SetEnabled(false);
  telemetry::Telemetry::Reset();
}

TEST_F(ServeTest, ServesEmptyListsBeforeFirstPublishAndForTopNZero) {
  // No model published: the daemon answers (empty), it does not crash or
  // hang.
  {
    serve::Server server(Config(/*max_batch=*/2, 0), graph_);
    server.Start();
    std::vector<Recommendation> got = {{1, 1.0f}};
    ASSERT_TRUE(server.TopN(0, &got));
    EXPECT_TRUE(got.empty());
    server.Stop();
  }
  // top_n = 0 is a valid config: every request yields an empty list.
  {
    std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 51);
    ASSERT_NE(model, nullptr);
    serve::ServerConfig config = Config(/*max_batch=*/2, 0);
    config.top_n = 0;
    serve::Server server(config, graph_);
    server.Publish(model);
    server.Start();
    std::vector<Recommendation> got = {{1, 1.0f}};
    ASSERT_TRUE(server.TopN(3, &got));
    EXPECT_TRUE(got.empty());
    server.Stop();
  }
}

// -- Observability plane -------------------------------------------------------

namespace {
uint64_t RequestHistCount() {
  telemetry::TelemetrySnapshot snapshot = telemetry::Telemetry::Snapshot();
  const telemetry::HistogramSample* hist = snapshot.FindHistogram("serve/request_ns");
  return hist == nullptr ? 0 : hist->data.count;
}
}  // namespace

// Regression test for the rejected-request accounting fix: a submission
// rejected at admission (queue closed) must not record into
// `serve/request_ns` — only requests that actually got an answer count
// toward latency percentiles and the SLO.
TEST_F(ServeTest, RejectedRequestsDoNotRecordLatency) {
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(true);
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 61);
  ASSERT_NE(model, nullptr);
  serve::Server server(Config(/*max_batch=*/4, 0), graph_);
  server.Publish(model);
  server.Start();
  std::vector<Recommendation> got;
  for (int64_t u = 0; u < 5; ++u) ASSERT_TRUE(server.TopN(u, &got));
  const uint64_t accepted = RequestHistCount();
  EXPECT_EQ(accepted, 5u);
  server.Stop();
  EXPECT_FALSE(server.TopN(0, &got));
  EXPECT_FALSE(server.TopN(1, &got));
  EXPECT_EQ(server.stats().rejected, 2u);
  EXPECT_EQ(RequestHistCount(), accepted);
  telemetry::Telemetry::SetEnabled(false);
  telemetry::Telemetry::Reset();
}

// Queue-wait / exec breakdown: both histograms record once per request and
// the ticket carries a consistent view (id unique, wait + exec <= total
// round trip implied by both being populated).
TEST_F(ServeTest, RequestTicketsCarryBreakdownAndUniqueIds) {
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(true);
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 62);
  ASSERT_NE(model, nullptr);
  serve::Server server(Config(/*max_batch=*/4, 0), graph_);
  server.Publish(model);
  server.Start();
  std::vector<Recommendation> got;
  std::set<uint64_t> ids;
  for (int64_t u = 0; u < 8; ++u) {
    serve::Server::RequestTicket ticket;
    ASSERT_TRUE(server.TopN(u, &got, &ticket));
    EXPECT_GT(ticket.id, 0u);
    EXPECT_GT(ticket.batch_seq, 0u);
    EXPECT_GT(ticket.exec_ns, 0u);
    ids.insert(ticket.id);
  }
  EXPECT_EQ(ids.size(), 8u);
  telemetry::TelemetrySnapshot snapshot = telemetry::Telemetry::Snapshot();
  const telemetry::HistogramSample* wait = snapshot.FindHistogram("serve/queue_wait_ns");
  const telemetry::HistogramSample* exec = snapshot.FindHistogram("serve/exec_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(wait->data.count, 8u);
  EXPECT_EQ(exec->data.count, 8u);
  server.Stop();
  telemetry::Telemetry::SetEnabled(false);
  telemetry::Telemetry::Reset();
}

// Regression test: timing is decided per request, not from the batch's
// first request. A request submitted while telemetry is off (enqueue_ns 0)
// that coalesces behind a timed one must not report the raw monotonic
// clock as its queue wait.
TEST_F(ServeTest, UntimedRequestBehindTimedOneReportsNoQueueWait) {
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(true);
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 65);
  ASSERT_NE(model, nullptr);
  serve::Server server(Config(/*max_batch=*/2, 0), graph_);
  server.Publish(model);
  // Both requests are queued before the admission loop starts, so they
  // form one batch in submission order: the timed request first. A request
  // decides its timing before it enters the queue, so once the queue holds
  // it, telemetry can be switched off for the second one.
  serve::Server::RequestTicket timed_ticket;
  std::vector<Recommendation> timed_got;
  std::thread timed_client([&] {
    EXPECT_TRUE(server.TopN(0, &timed_got, &timed_ticket));
  });
  while (server.queue_depth() < 1) std::this_thread::yield();
  telemetry::Telemetry::SetEnabled(false);
  serve::Server::RequestTicket untimed_ticket;
  std::vector<Recommendation> untimed_got;
  std::thread untimed_client([&] {
    EXPECT_TRUE(server.TopN(1, &untimed_got, &untimed_ticket));
  });
  while (server.queue_depth() < 2) std::this_thread::yield();
  server.Start();
  timed_client.join();
  untimed_client.join();
  EXPECT_EQ(timed_ticket.batch_seq, untimed_ticket.batch_seq);
  EXPECT_GT(timed_ticket.queue_wait_ns, 0u);
  EXPECT_EQ(untimed_ticket.queue_wait_ns, 0u);
  EXPECT_EQ(untimed_ticket.exec_ns, 0u);
  server.Stop();
  telemetry::Telemetry::Reset();
}

// The stats endpoint answers every verb — in process and over the real
// socket — while results stay bitwise identical to the library path.
TEST_F(ServeTest, StatsEndpointServesVerbsWithBitwiseIdenticalResults) {
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(true);
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 63);
  ASSERT_NE(model, nullptr);
  const auto expected = FullCatalogExpected(*model);
  serve::ServerConfig config = Config(/*max_batch=*/4, 0);
  config.stats_socket = ::testing::TempDir() + "serve_test_stats_" +
                        std::to_string(getpid()) + ".sock";
  config.stats_window_ms = 50;
  serve::Server server(config, graph_);
  server.Publish(model);
  server.Start();
  ASSERT_NE(server.stats_endpoint(), nullptr);
  Drive(server, /*threads=*/4, /*rounds=*/2, expected);

  auto stats = server.stats_endpoint()->Handle("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("\"windows\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"slo\""), std::string::npos);
  auto healthz = server.stats_endpoint()->Handle("healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz.value().find("\"ok\": true"), std::string::npos);
  auto metrics = server.stats_endpoint()->Handle("metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("scenerec_serve_daemon_requests"),
            std::string::npos);
  EXPECT_FALSE(server.stats_endpoint()->Handle("bogus").ok());

  auto vars = UnixSocketRequest(config.stats_socket, "vars");
  ASSERT_TRUE(vars.ok()) << vars.status().ToString();
  EXPECT_NE(vars.value().find("server requests "), std::string::npos);
  auto trace = UnixSocketRequest(config.stats_socket, "trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.value().find("serve/exec"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(UnixSocketRequest(config.stats_socket, "vars").ok());
  telemetry::Telemetry::SetEnabled(false);
  telemetry::Telemetry::Reset();
}

// An unreachable SLO target degrades health without affecting answers; a
// zero target leaves the tracker disabled and healthz green.
TEST_F(ServeTest, SloTargetBlownDegradesHealthzButNotResults) {
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 64);
  ASSERT_NE(model, nullptr);
  const auto expected = FullCatalogExpected(*model);
  serve::ServerConfig config = Config(/*max_batch=*/4, 0);
  config.stats_socket = ::testing::TempDir() + "serve_test_slo_" +
                        std::to_string(getpid()) + ".sock";
  config.slo_target_p99_us = 1;  // 1us: every real request breaches
  serve::Server server(config, graph_);
  server.Publish(model);
  server.Start();
  Drive(server, /*threads=*/2, /*rounds=*/1, expected);
  serve::SloTracker::State state = server.slo().state();
  EXPECT_TRUE(state.enabled);
  EXPECT_GT(state.total, 0u);
  EXPECT_GT(state.over_target, 0u);
  EXPECT_GT(state.budget_burn, 1.0);
  EXPECT_FALSE(state.ok);
  auto healthz = server.stats_endpoint()->Handle("healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz.value().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(healthz.value().find("degraded"), std::string::npos);
  server.Stop();

  serve::Server plain(Config(/*max_batch=*/4, 0), graph_);
  plain.Publish(model);
  plain.Start();
  std::vector<Recommendation> got;
  ASSERT_TRUE(plain.TopN(0, &got));
  EXPECT_FALSE(plain.slo().state().enabled);
  EXPECT_TRUE(plain.slo().state().ok);
  plain.Stop();
}

// -- Lazy warm-up / demand-paged user cache (docs/serving.md#warmup) ----------

// The contract the whole feature rests on: lazy warm-up must be BITWISE
// invisible in results. Two servers over the same SceneRec model — one full
// warm-up, one demand-paged — must return identical lists for every user,
// from concurrent clients, including when the cache is too small to hold
// the user set (constant eviction churn on the hot path).
TEST_F(ServeTest, LazyWarmupBitwiseMatchesFullWarmup) {
  std::shared_ptr<Recommender> model = MakeModel("SceneRec", 71);
  ASSERT_NE(model, nullptr);
  ASSERT_TRUE(model->SupportsUserReprCache());
  const auto expected = FullCatalogExpected(*model);
  for (int64_t cache_entries :
       {dataset_.num_users * 2, dataset_.num_users / 8}) {
    SCOPED_TRACE("user_cache_entries=" + std::to_string(cache_entries));
    serve::ServerConfig config = Config(/*max_batch=*/4, 0);
    config.warmup = serve::ServerConfig::Warmup::kLazy;
    config.user_cache_entries = cache_entries;
    serve::Server server(config, graph_);
    server.Publish(model);
    server.Start();
    Drive(server, /*threads=*/4, /*rounds=*/4, expected);
    server.Stop();
    const ReprCache::Stats cache = server.user_cache_stats();
    EXPECT_GT(cache.misses, 0u);  // demand paging actually happened
    EXPECT_LE(cache.entries, cache_entries);
    if (cache_entries < dataset_.num_users) {
      EXPECT_GT(cache.evictions, 0u);  // the tiny cache really churned
    } else {
      EXPECT_GT(cache.hits, 0u);  // rounds 2..4 served from residency
    }
  }
}

// Hot swap onto a COLD cache under live traffic: version-tagged entries
// mean a swap invalidates lazily, so the first post-swap touch of every
// user recomputes under the new parameters. No result may mix versions,
// and after the swap drains serving is pure B.
TEST_F(ServeTest, LazyWarmupHotSwapOnColdCacheNeverTearsResults) {
  std::shared_ptr<Recommender> model_a = MakeModel("SceneRec", 81);
  std::shared_ptr<Recommender> model_b = MakeModel("SceneRec", 82);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);
  const auto expected_a = FullCatalogExpected(*model_a);
  const auto expected_b = FullCatalogExpected(*model_b);

  auto matches = [](const std::vector<Recommendation>& got,
                    const std::vector<Recommendation>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].item != want[i].item || got[i].score != want[i].score) {
        return false;
      }
    }
    return true;
  };

  serve::ServerConfig config = Config(/*max_batch=*/4, 0);
  config.warmup = serve::ServerConfig::Warmup::kLazy;
  config.user_cache_entries = dataset_.num_users / 4;  // eviction stays live
  serve::Server server(config, graph_);
  server.Publish(model_a);
  server.Start();

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> version_b_hits{0};
  const int64_t total = dataset_.num_users * 10;
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1);
        if (seq >= total) break;
        // Skewed mix: half the traffic concentrates on 5 hot users (well
        // inside the 10-entry cache, so residency pays off), half cycles
        // the whole catalog (so eviction churn never stops). A pure
        // round-robin sweep over 40 users through 10 slots is the
        // pathological cyclic pattern — every access would miss.
        const int64_t user = (seq & 1) != 0 ? seq % dataset_.num_users
                                            : (seq >> 1) % 5;
        ASSERT_TRUE(server.TopN(user, &got));
        const bool is_a = matches(got, expected_a[static_cast<size_t>(user)]);
        const bool is_b = matches(got, expected_b[static_cast<size_t>(user)]);
        ASSERT_TRUE(is_a || is_b)
            << "stale-cache or torn result for user " << user;
        if (is_b) version_b_hits.fetch_add(1);
      }
    });
  }
  std::thread publisher([&] {
    while (next.load() < total / 4) std::this_thread::yield();
    server.Publish(model_b);
  });
  publisher.join();
  for (std::thread& t : clients) t.join();

  // Every user — whether its entry is resident-stale, resident-fresh, or
  // evicted — must now serve version B exactly.
  std::vector<Recommendation> got;
  for (int64_t u = 0; u < dataset_.num_users; ++u) {
    ASSERT_TRUE(server.TopN(u, &got));
    ExpectSameList(got, expected_b[static_cast<size_t>(u)]);
  }
  server.Stop();
  EXPECT_GT(version_b_hits.load(), 0);
  const ReprCache::Stats cache = server.user_cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_LE(cache.entries, config.user_cache_entries);
}

// Models without a user-repr capability fall back to full warm-up
// silently: lazy mode must neither crash (the base-class CHECK) nor change
// results, and the cache stats must stay empty.
TEST_F(ServeTest, LazyWarmupFallsBackToFullForUnsupportedModels) {
  std::shared_ptr<Recommender> model = MakeModel("BPR-MF", 91);
  ASSERT_NE(model, nullptr);
  ASSERT_FALSE(model->SupportsUserReprCache());
  const auto expected = FullCatalogExpected(*model);
  serve::ServerConfig config = Config(/*max_batch=*/4, 0);
  config.warmup = serve::ServerConfig::Warmup::kLazy;
  serve::Server server(config, graph_);
  server.Publish(model);
  server.Start();
  Drive(server, /*threads=*/2, /*rounds=*/2, expected);
  server.Stop();
  const ReprCache::Stats cache = server.user_cache_stats();
  EXPECT_EQ(cache.capacity_bytes, 0);
  EXPECT_EQ(cache.hits + cache.misses, 0u);
}

}  // namespace
}  // namespace scenerec
