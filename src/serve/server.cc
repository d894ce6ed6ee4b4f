#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "retrieval/two_stage.h"
#include "serve/observe.h"

namespace scenerec {
namespace serve {

namespace {

// Daemon telemetry (docs/observability.md): request throughput/latency and
// how well the admission loop coalesces. `serve/request_ns` is the
// end-to-end latency histogram bench_serve derives p50/p99 from.
const telemetry::Counter t_requests =
    telemetry::RegisterCounter("serve/daemon_requests");
const telemetry::Counter t_rejected =
    telemetry::RegisterCounter("serve/daemon_rejected");
const telemetry::Counter t_invalid_users =
    telemetry::RegisterCounter("serve/daemon_invalid_users");
const telemetry::Counter t_batches =
    telemetry::RegisterCounter("serve/daemon_batches");
const telemetry::Counter t_rows =
    telemetry::RegisterCounter("serve/daemon_rows");
const telemetry::Histogram h_request_ns =
    telemetry::RegisterHistogram("serve/request_ns", "ns");
const telemetry::Histogram h_batch_size =
    telemetry::RegisterHistogram("serve/batch_size", "requests");
// Latency breakdown: request_ns = queue_wait_ns (enqueue -> admission) +
// exec_ns (admission -> this request's result ready) + promise-delivery
// noise.
const telemetry::Histogram h_queue_wait_ns =
    telemetry::RegisterHistogram("serve/queue_wait_ns", "ns");
const telemetry::Histogram h_exec_ns =
    telemetry::RegisterHistogram("serve/exec_ns", "ns");
const telemetry::Counter t_swaps =
    telemetry::RegisterCounter("serve/model_swaps");

void AtomicMax(std::atomic<uint64_t>& cell, uint64_t v) {
  uint64_t cur = cell.load(std::memory_order_relaxed);
  while (cur < v &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// `config`, once ValidateServerConfig accepts it: the members built from
/// it (the queue first) never see an out-of-range value.
const ServerConfig& CheckedConfig(const ServerConfig& config) {
  const Status status = ValidateServerConfig(config);
  SCENEREC_CHECK(status.ok()) << status.ToString();
  return config;
}

}  // namespace

Status ValidateServerConfig(const ServerConfig& config) {
  const auto at_least = [](const char* field, int64_t value,
                           int64_t min) -> Status {
    if (value >= min) return Status::OK();
    return Status::InvalidArgument("ServerConfig." + std::string(field) +
                                   " must be >= " + std::to_string(min) +
                                   " (got " + std::to_string(value) + ")");
  };
  SCENEREC_RETURN_IF_ERROR(at_least("top_n", config.top_n, 0));
  SCENEREC_RETURN_IF_ERROR(at_least("max_batch", config.max_batch, 1));
  SCENEREC_RETURN_IF_ERROR(at_least("max_delay_us", config.max_delay_us, 0));
  SCENEREC_RETURN_IF_ERROR(
      at_least("queue_capacity", config.queue_capacity, 1));
  SCENEREC_RETURN_IF_ERROR(
      at_least("num_candidates", config.num_candidates, 0));
  SCENEREC_RETURN_IF_ERROR(
      at_least("slo_target_p99_us", config.slo_target_p99_us, 0));
  if (config.warmup == ServerConfig::Warmup::kLazy) {
    SCENEREC_RETURN_IF_ERROR(
        at_least("user_cache_entries", config.user_cache_entries, 1));
  }
  if (!config.stats_socket.empty()) {
    SCENEREC_RETURN_IF_ERROR(
        at_least("stats_window_ms", config.stats_window_ms, 1));
    SCENEREC_RETURN_IF_ERROR(
        at_least("stats_window_intervals", config.stats_window_intervals, 2));
  }
  return Status::OK();
}

Server::Server(const ServerConfig& config, const UserItemGraph& train_graph)
    : config_(CheckedConfig(config)),
      train_graph_(train_graph),
      queue_(static_cast<size_t>(config_.queue_capacity)),
      slo_(SloConfig{
          static_cast<uint64_t>(config_.slo_target_p99_us) * 1000,
          config_.slo_error_budget}) {}

Server::~Server() { Stop(); }

void Server::Publish(std::shared_ptr<Recommender> model,
                     std::shared_ptr<const ItemIndex> index) {
  if (model != nullptr) {
    if (config_.num_candidates > 0) {
      SCENEREC_CHECK(index != nullptr);
    }
    const uint64_t version =
        publish_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool lazy = config_.warmup == ServerConfig::Warmup::kLazy &&
                      model->SupportsUserReprCache();
    if (lazy) {
      // One cache shared across publishes (the hot set survives swaps);
      // entries are tagged with this publish's sequence number, so the
      // previous version's rows turn into misses the moment the swap lands
      // — lazy invalidation, no stop-the-world flush.
      std::shared_ptr<ReprCache> cache;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        if (user_cache_ == nullptr ||
            user_cache_->dim() != model->UserReprDim()) {
          ReprCache::Options options;
          options.capacity = config_.user_cache_entries;
          options.dim = model->UserReprDim();
          user_cache_ = std::make_shared<ReprCache>(options);
        }
        cache = user_cache_;
      }
      model->AttachUserReprCache(std::move(cache), version);
    }
    // Read-side preparation happens BEFORE the swap, outside the state
    // mutex: in-flight batches keep scoring the old version while the new
    // one warms its eval caches on the default pool's lanes — the full
    // catalog in full warm-up mode, only the item side in lazy mode, and
    // nothing that an index export or an earlier publish of the unwritten
    // model already filled — so the first request on the new version pays
    // no lazy-init cost.
    SCENEREC_TRACE_SPAN_F("serve/publish_warmup", "serve", trace::Floor::kNone,
                          "version=%llu lazy=%d",
                          static_cast<unsigned long long>(version),
                          lazy ? 1 : 0);
    model->OnEvalBegin();
    model->PrepareParallelScoring(*DefaultThreadPool());
  }
  SCENEREC_TRACE_SPAN("serve/model_swap", "serve", trace::Floor::kNone);
  {
    // The retired pair lands in the parameters and is released after the
    // lock; batches still holding it keep it alive until they drain.
    std::lock_guard<std::mutex> lock(state_mu_);
    model_.swap(model);
    index_.swap(index);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  t_swaps.Add();
}

void Server::Start() {
  SCENEREC_CHECK(!started_);
  started_ = true;
  worker_ = std::thread([this] { Loop(); });
  if (!config_.stats_socket.empty()) {
    stats_ = std::make_unique<StatsEndpoint>(*this, config_.stats_socket);
    const Status status = stats_->Start();
    if (!status.ok()) {
      // The stats plane is strictly observational: a bad socket path must
      // not take serving down with it.
      SCENEREC_LOG(WARNING) << "stats endpoint disabled: "
                            << status.ToString();
      stats_.reset();
    }
  }
}

void Server::Stop() {
  // The endpoint goes first so no scrape observes the queue mid-teardown.
  if (stats_ != nullptr) {
    stats_->Stop();
    stats_.reset();
  }
  queue_.Close();
  if (worker_.joinable()) worker_.join();
}

bool Server::model_published() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return model_ != nullptr;
}

bool Server::TopN(int64_t user, std::vector<Recommendation>* out,
                  RequestTicket* ticket) {
  SCENEREC_CHECK(out != nullptr);
  // Validated at admission: an id outside the training graph would reach
  // the candidate builders' range CHECKs on the admission thread and take
  // every client down with it.
  if (user < 0 || user >= train_graph_.num_users()) {
    t_invalid_users.Add(1);
    invalid_users_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The clock is read up front but serve/request_ns is recorded only once
  // the request has been accepted AND served: a rejected submission (queue
  // closed) returns in nanoseconds and must not pollute the latency
  // distribution the SLO is held against.
  const bool timed =
      telemetry::Enabled() || trace::Enabled() || slo_.enabled();
  const uint64_t start_ns = timed ? trace::internal::NowNs() : 0;
  Request request;
  request.user = user;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  request.enqueue_ns = start_ns;
  const uint64_t id = request.id;
  std::future<Reply> result = request.result.get_future();
  if (!queue_.Push(std::move(request))) {
    t_rejected.Add(1);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Reply reply = result.get();
  if (timed) {
    const uint64_t latency_ns = trace::internal::NowNs() - start_ns;
    h_request_ns.Record(latency_ns);
    slo_.Observe(latency_ns);
  }
  t_requests.Add(1);
  requests_.fetch_add(1, std::memory_order_relaxed);
  *out = std::move(reply.recommendations);
  if (ticket != nullptr) {
    ticket->id = id;
    ticket->queue_wait_ns = reply.queue_wait_ns;
    ticket->exec_ns = reply.exec_ns;
    ticket->batch_seq = reply.batch_seq;
  }
  return true;
}

Server::Stats Server::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.invalid_users = invalid_users_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows_scored = rows_scored_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  return s;
}

ReprCache::Stats Server::user_cache_stats() const {
  std::shared_ptr<ReprCache> cache;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    cache = user_cache_;
  }
  return cache == nullptr ? ReprCache::Stats{} : cache->stats();
}

void Server::Loop() {
  std::vector<Request> batch;
  Request first;
  // Pop returns false only once the queue is closed AND drained, so every
  // accepted request is served before the loop exits (clean shutdown).
  while (queue_.Pop(&first)) {
    batch.clear();
    batch.push_back(std::move(first));
    if (config_.max_batch > 1) {
      // Admission window: drain whatever is already waiting, then wait at
      // most max_delay_us (measured from the first admitted request) for
      // stragglers to coalesce with.
      const std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.max_delay_us);
      Request next;
      while (static_cast<int64_t>(batch.size()) < config_.max_batch) {
        if (queue_.TryPop(&next)) {
          batch.push_back(std::move(next));
          continue;
        }
        if (config_.max_delay_us <= 0 || !queue_.PopUntil(&next, deadline)) {
          break;
        }
        batch.push_back(std::move(next));
      }
    }
    ServeBatch(batch);
  }
}

void Server::ServeBatch(std::vector<Request>& batch) {
  SCENEREC_TRACE_SPAN_F("serve/batch", "serve", trace::Floor::kNone,
                        "requests=%zu", batch.size());
  t_batches.Add(1);
  h_batch_size.Record(batch.size());
  const uint64_t batch_seq =
      batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  AtomicMax(max_batch_, batch.size());

  // Latency breakdown: a request's enqueue_ns (stamped by TopN) to here is
  // queue wait; here to its own result is exec. Timing is decided per
  // request: enqueue_ns is 0 when nothing consumed timing at submission,
  // and such a request reports no timing even if it shares the batch with
  // timed ones (telemetry may be toggled between submissions).
  const auto timed = [](const Request& r) { return r.enqueue_ns != 0; };
  const bool any_timed = std::any_of(batch.begin(), batch.end(), timed);
  const uint64_t admit_ns = any_timed ? trace::internal::NowNs() : 0;
  if (any_timed) {
    for (const Request& r : batch) {
      if (!timed(r)) continue;
      const uint64_t wait =
          admit_ns > r.enqueue_ns ? admit_ns - r.enqueue_ns : 0;
      h_queue_wait_ns.Record(wait);
    }
  }

  // One state acquisition per batch: every request in the batch scores the
  // same model version against that version's index, and a concurrent
  // Publish takes effect at the next batch boundary.
  std::shared_ptr<Recommender> model;
  std::shared_ptr<const ItemIndex> index;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    model = model_;
    index = index_;
  }
  if (model == nullptr) {
    for (Request& r : batch) r.result.set_value({});
    return;
  }

  // Stage 1, candidates. Retrieval mode runs ONE sweep for the whole batch:
  // RetrieveCandidatesBatch pushes every request's query through a single
  // ItemIndex::MultiSearch, so the exact backend streams the item matrix
  // through cache once per batch instead of once per request — the main
  // amortization batched admission buys. Full-catalog mode builds each
  // request's unseen-item list into a vector that keeps its capacity from
  // earlier batches.
  std::vector<std::vector<int64_t>>& candidates = scratch_.candidates;
  if (config_.num_candidates > 0) {
    std::vector<int64_t>& batch_users = scratch_.batch_users;
    batch_users.clear();
    for (const Request& r : batch) batch_users.push_back(r.user);
    candidates = RetrieveCandidatesBatch(*model, *index, train_graph_,
                                         batch_users, config_.num_candidates);
  } else {
    candidates.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      UninteractedItems(train_graph_, batch[i].user, &candidates[i]);
    }
  }

  // Stage 2, per request: the library's own score-and-select step, so a
  // reply is bitwise TopNRecommendations' / TwoStageTopN's. Each reply is
  // handed over as soon as it is ready; its exec time ends there.
  const BlockScoreFn score = model->BlockScorer();
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& r = batch[i];
    Reply reply;
    reply.batch_seq = batch_seq;
    if (timed(r)) {
      reply.queue_wait_ns =
          admit_ns > r.enqueue_ns ? admit_ns - r.enqueue_ns : 0;
    }
    {
      SCENEREC_TRACE_SPAN_F(
          "serve/request", "serve", trace::Floor::kNone,
          "req=%llu user=%lld wait_us=%llu",
          static_cast<unsigned long long>(r.id),
          static_cast<long long>(r.user),
          static_cast<unsigned long long>(reply.queue_wait_ns / 1000));
      ScoreAndSelectTopN(score, r.user, candidates[i], config_.top_n,
                         &reply.recommendations);
    }
    const uint64_t rows = config_.top_n > 0 ? candidates[i].size() : 0;
    t_rows.Add(rows);
    rows_scored_.fetch_add(rows, std::memory_order_relaxed);
    if (timed(r)) {
      const uint64_t end_ns = trace::internal::NowNs();
      reply.exec_ns = end_ns > admit_ns ? end_ns - admit_ns : 0;
      h_exec_ns.Record(reply.exec_ns);
    }
    r.result.set_value(std::move(reply));
  }
}

}  // namespace serve
}  // namespace scenerec
