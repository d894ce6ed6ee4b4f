#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
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
// exec_ns (admission -> result ready) + promise-delivery noise.
const telemetry::Histogram h_queue_wait_ns =
    telemetry::RegisterHistogram("serve/queue_wait_ns", "ns");
const telemetry::Histogram h_exec_ns =
    telemetry::RegisterHistogram("serve/exec_ns", "ns");
// Batches whose flatten buffers (users/items/scores) were served entirely
// from retained scratch capacity — no catalog-sized allocation. Rises to
// ~100% of serve/daemon_batches once the scratch is warm (bench_serve
// reports the ratio as scratch_reuse_pct).
const telemetry::Counter t_scratch_reuses =
    telemetry::RegisterCounter("serve/scratch_reuse_batches");

void AtomicMax(std::atomic<uint64_t>& cell, uint64_t v) {
  uint64_t cur = cell.load(std::memory_order_relaxed);
  while (cur < v &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Server::Server(const ServerConfig& config, const UserItemGraph& train_graph)
    : config_(config),
      train_graph_(train_graph),
      queue_(static_cast<size_t>(config.queue_capacity)),
      slo_(SloConfig{
          static_cast<uint64_t>(config.slo_target_p99_us) * 1000,
          config.slo_error_budget}) {
  SCENEREC_CHECK_GE(config_.top_n, 0);
  SCENEREC_CHECK_GE(config_.max_batch, 1);
  SCENEREC_CHECK_GE(config_.max_delay_us, 0);
  SCENEREC_CHECK_GE(config_.num_candidates, 0);
  SCENEREC_CHECK_GE(config_.slo_target_p99_us, 0);
  if (config_.warmup == ServerConfig::Warmup::kLazy) {
    SCENEREC_CHECK_GE(config_.user_cache_entries, 1);
  }
  if (!config_.stats_socket.empty()) {
    SCENEREC_CHECK_GE(config_.stats_window_ms, 1);
    SCENEREC_CHECK_GE(config_.stats_window_intervals, 2);
    SCENEREC_CHECK_GE(config_.live_trace_capacity, 1);
    live_trace_ = std::make_unique<LiveTraceRing>(
        static_cast<size_t>(config_.live_trace_capacity));
  }
}

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
    // Read-side preparation happens BEFORE the swap (the ModelHandle
    // contract), outside the state mutex: in-flight batches keep scoring
    // the old version while the new one warms its eval caches — the full
    // catalog in full warm-up mode, only the item side in lazy mode.
    SCENEREC_TRACE_SPAN_F("serve/publish_warmup", "serve", trace::Floor::kNone,
                          "version=%llu lazy=%d",
                          static_cast<unsigned long long>(version),
                          lazy ? 1 : 0);
    model->OnEvalBegin();
    model->PrepareParallelScoring(prep_pool_);
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  handle_.Publish(std::move(model));
  index_ = std::move(index);
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
  return handle_.Acquire() != nullptr;
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
      telemetry::Enabled() || live_trace_ != nullptr || slo_.enabled();
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
  s.publishes = handle_.swap_count();
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
  // queue wait; here to result-ready is exec. Timing is decided per
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
      if (live_trace_ != nullptr) {
        live_trace_->Record({"serve/queue_wait", r.enqueue_ns, wait, r.id,
                             r.user, batch_seq, batch.size()});
      }
    }
  }

  // One state acquisition per batch: every request in the batch scores the
  // same model version against that version's index, and a concurrent
  // Publish takes effect at the next batch boundary.
  std::shared_ptr<Recommender> model;
  std::shared_ptr<const ItemIndex> index;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    model = handle_.Acquire();
    index = index_;
  }
  if (model == nullptr) {
    for (Request& r : batch) r.result.set_value({});
    return;
  }

  // Stage 1, ONE retrieval sweep for the whole batch:
  // RetrieveCandidatesBatch pushes every request's query through a single
  // ItemIndex::MultiSearch, so the exact backend streams the item matrix
  // through cache once per batch instead of once per request — the main
  // amortization batched admission buys on the retrieval path. Per request
  // the candidate list is bitwise RetrieveCandidates', so results stay
  // identical to per-request serving.
  std::vector<std::vector<int64_t>>& candidates = scratch_.candidates;
  if (config_.num_candidates > 0) {
    std::vector<int64_t>& batch_users = scratch_.batch_users;
    batch_users.clear();
    batch_users.reserve(batch.size());
    for (const Request& r : batch) batch_users.push_back(r.user);
    candidates = RetrieveCandidatesBatch(*model, *index, train_graph_,
                                         batch_users, config_.num_candidates);
  } else {
    candidates.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      // Out-param overload: the per-request candidate vector keeps its
      // catalog-sized capacity from earlier batches.
      UninteractedItems(train_graph_, batch[i].user, &candidates[i]);
    }
  }

  // Stage 2, shared: flatten every request's candidate rows into one
  // (user, item) row list and score it in bounded chunks. ScoreRows is
  // per-row bitwise equal to Score regardless of co-batched rows, so the
  // flattening and re-chunking cannot change any request's scores — it
  // only lets concurrent requests share ScoreRows calls. The flatten buffers
  // are admission-thread scratch: once warm, no allocation happens here.
  size_t total = 0;
  for (const std::vector<int64_t>& c : candidates) total += c.size();
  std::vector<int64_t>& users = scratch_.users;
  std::vector<int64_t>& items = scratch_.items;
  std::vector<float>& scores = scratch_.scores;
  if (users.capacity() >= total && items.capacity() >= total &&
      scores.capacity() >= total) {
    t_scratch_reuses.Add(1);
  }
  users.clear();
  items.clear();
  users.reserve(total);
  items.reserve(total);
  for (size_t i = 0; i < batch.size(); ++i) {
    users.insert(users.end(), candidates[i].size(), batch[i].user);
    items.insert(items.end(), candidates[i].begin(), candidates[i].end());
  }
  scores.resize(total);
  for (size_t offset = 0; offset < total;
       offset += static_cast<size_t>(kScoreBlockSize)) {
    const size_t len =
        std::min(static_cast<size_t>(kScoreBlockSize), total - offset);
    SCENEREC_TRACE_SPAN_F("serve/score_rows", "serve", trace::Floor::kOp,
                          "rows=%zu", len);
    model->ScoreRows(std::span<const int64_t>(users).subspan(offset, len),
                     std::span<const int64_t>(items).subspan(offset, len),
                     std::span<float>(scores).subspan(offset, len));
  }
  t_rows.Add(total);
  rows_scored_.fetch_add(total, std::memory_order_relaxed);

  const uint64_t end_ns = any_timed ? trace::internal::NowNs() : 0;
  const uint64_t exec_ns = end_ns > admit_ns ? end_ns - admit_ns : 0;
  if (any_timed) {
    for (const Request& r : batch) {
      if (!timed(r)) continue;
      h_exec_ns.Record(exec_ns);
      if (live_trace_ != nullptr) {
        live_trace_->Record({"serve/exec", admit_ns, exec_ns, r.id, r.user,
                             batch_seq, batch.size()});
      }
    }
    // Request-scoped spans in the OFFLINE trace too: synthetic children of
    // the enclosing serve/batch span, so a post-run Chrome trace shows per
    // request who waited and who rode which batch.
    if (trace::Enabled()) {
      const uint64_t parent = trace::CurrentContext().span_id;
      trace::internal::ThreadBuffer& buf = trace::internal::Buffer();
      for (const Request& r : batch) {
        if (!timed(r)) continue;
        const uint64_t span_id =
            (static_cast<uint64_t>(buf.thread_index + 1) << 40) |
            ++buf.next_seq;
        char args[trace::internal::kMaxArgsChars];
        std::snprintf(args, sizeof(args), "req=%llu user=%lld",
                      static_cast<unsigned long long>(r.id),
                      static_cast<long long>(r.user));
        trace::internal::Record("serve/request", "serve", r.enqueue_ns,
                                end_ns - r.enqueue_ns, span_id, parent, args);
      }
    }
  }

  // Per-request selection through the shared SelectTopN — the same strict
  // total order as every other serving surface.
  size_t pos = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<Recommendation>& scored = scratch_.scored;
    scored.clear();
    scored.reserve(candidates[i].size());
    for (const int64_t item : candidates[i]) {
      scored.push_back({item, scores[pos++]});
    }
    // In-place selection on the reused staging vector; only the n winners
    // are copied into the reply.
    SelectTopNInPlace(&scored, config_.top_n);
    Reply reply;
    reply.recommendations.assign(scored.begin(), scored.end());
    if (timed(batch[i])) {
      reply.queue_wait_ns = admit_ns > batch[i].enqueue_ns
                                ? admit_ns - batch[i].enqueue_ns
                                : 0;
      reply.exec_ns = exec_ns;
    }
    reply.batch_seq = batch_seq;
    batch[i].result.set_value(std::move(reply));
  }
}

}  // namespace serve
}  // namespace scenerec
