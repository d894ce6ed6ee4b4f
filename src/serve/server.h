#ifndef SCENEREC_SERVE_SERVER_H_
#define SCENEREC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/repr_cache.h"
#include "common/status.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/recommender.h"
#include "retrieval/item_index.h"
#include "serve/slo.h"

namespace scenerec {
namespace serve {

class StatsEndpoint;

/// Tuning knobs of the serving daemon (docs/serving.md#daemon).
struct ServerConfig {
  /// Recommendations returned per request.
  int64_t top_n = 10;
  /// Most requests coalesced into one admission batch. 1 disables
  /// coalescing entirely — the per-request baseline bench_serve compares
  /// against.
  int64_t max_batch = 32;
  /// How long the admission loop waits for more requests after the first
  /// one arrives, before serving a partial batch. 0 means "whatever is
  /// already queued, never wait".
  int64_t max_delay_us = 200;
  /// Bound of the request queue; Push blocks (backpressure) when full.
  int64_t queue_capacity = 256;
  /// 0 serves the full catalog (TopNRecommendations semantics); > 0 runs
  /// two-stage retrieval with this candidate budget (TwoStageTopN
  /// semantics) and requires an ItemIndex at Publish time.
  int64_t num_candidates = 0;

  // -- Warm-up policy (docs/serving.md#warmup) -------------------------------

  /// How Publish warms the incoming model's read side. kFull precomputes
  /// every user representation (O(users+items) before the swap); kLazy
  /// skips the user sweep — O(items) warm-up, user reprs demand-paged
  /// through a bounded ReprCache keyed by the publish sequence. Responses
  /// are bitwise identical either way; models without user-repr-cache
  /// support silently fall back to full warm-up.
  enum class Warmup { kFull, kLazy };
  Warmup warmup = Warmup::kFull;
  /// Capacity (entries) of the lazy-mode user-representation cache. Size it
  /// to the hot set: at ~10% of users under Zipf traffic, BENCH_cache.json's
  /// steady-state medians read 66.72 ms lazy vs 66.41 ms full (+0.5%; means
  /// +6.0%), a gap inside that recording's 8-10% run-to-run spread.
  int64_t user_cache_entries = 65536;

  // -- Observability plane (docs/observability.md) ---------------------------

  /// Unix-domain socket path of the stats endpoint. Empty (the default)
  /// disables the endpoint entirely; serving itself is unaffected either
  /// way (responses stay bitwise identical with the socket active).
  std::string stats_socket;
  /// Rolling-window resolution: one histogram ring slot per this many ms.
  int64_t stats_window_ms = 1000;
  /// Ring slots — the window spans stats_window_ms * stats_window_intervals.
  int64_t stats_window_intervals = 30;
  /// SLO target for end-to-end request p99, in microseconds. 0 disables
  /// SLO tracking (healthz then ignores latency). The error budget is
  /// SloConfig's 0.1% of requests over target.
  int64_t slo_target_p99_us = 0;
};

/// OK when every field is in range; otherwise InvalidArgument naming the
/// first bad field. Server's constructor CHECKs it, so a binary that takes
/// these values from its command line validates them first.
Status ValidateServerConfig(const ServerConfig& config);

/// The always-on serving daemon: owns the published model plus its matching
/// retrieval index, accepts Top-N requests from any number of client
/// threads through a bounded MPMC queue, and serves them from ONE admission
/// loop that coalesces concurrently-waiting requests into a batch — one
/// candidate sweep per batch in retrieval mode — and ends every request in
/// ScoreAndSelectTopN (docs/serving.md#daemon).
///
/// Results are bitwise identical to per-request serving: candidate lists
/// come from the same UninteractedItems / RetrieveCandidatesBatch helpers
/// the library paths use, and scoring and selection are the same
/// ScoreAndSelectTopN call, so TopN() returns exactly what
/// TopNRecommendations / TwoStageTopN would, regardless of which requests
/// happened to share a batch.
///
/// Hot swap: Publish() prepares the read side of the incoming model
/// (OnEvalBegin + PrepareParallelScoring on the process's default pool;
/// work an index export already did is skipped), then swaps model and index
/// as one unit under the state mutex. Each batch acquires the state once, so
/// a batch never mixes two versions and never pairs a model with another
/// version's index. Retirement is drain-based: the old model (and, for a
/// snapshot-bound model, its file mapping) dies with the last batch still
/// holding it.
class Server {
 public:
  /// `train_graph` is the interaction-masking graph; it must outlive the
  /// server. Scoring happens on the admission thread only.
  Server(const ServerConfig& config, const UserItemGraph& train_graph);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Publishes a model version (and, in retrieval mode, the index built
  /// from THAT model's embeddings — required when num_candidates > 0).
  /// Does the read-side preparation before the swap, so the first request
  /// on the new version pays no lazy-init cost. Safe under live traffic.
  void Publish(std::shared_ptr<Recommender> model,
               std::shared_ptr<const ItemIndex> index = nullptr);

  /// Starts the admission loop. Call once, after the first Publish.
  void Start();

  /// Closes the queue, serves every already-accepted request, and joins
  /// the admission loop. Requests arriving after Stop are rejected.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Per-request metadata returned alongside the recommendations: the
  /// request id that the request's `serve/request` trace span carries as
  /// `req=`, and the latency breakdown the admission loop measured for it.
  /// Timing fields are 0 when neither telemetry, tracing nor the SLO
  /// tracker was on when the request was submitted.
  struct RequestTicket {
    uint64_t id = 0;
    uint64_t queue_wait_ns = 0;  ///< enqueue -> batch admission
    uint64_t exec_ns = 0;        ///< batch admission -> result ready
    uint64_t batch_seq = 0;      ///< admission batch this request rode in
  };

  /// Blocking Top-N for `user`: enqueues, waits for the admission loop,
  /// returns true with the recommendations in `*out`. Returns false (and
  /// leaves `*out` untouched) when the server has been stopped, or when
  /// `user` is outside [0, num_users) of the training graph — such an id
  /// is never enqueued and counts in serve/daemon_invalid_users and
  /// Stats::invalid_users. Callable from any number of threads
  /// concurrently. `ticket`, if given, receives the request id and latency
  /// breakdown on success.
  bool TopN(int64_t user, std::vector<Recommendation>* out,
            RequestTicket* ticket = nullptr);

  /// Point-in-time serving statistics (relaxed counters — exact once the
  /// server is stopped).
  struct Stats {
    uint64_t requests = 0;      ///< accepted and served
    uint64_t rejected = 0;      ///< refused because the server was stopped
    uint64_t invalid_users = 0; ///< refused for an out-of-range user id
    uint64_t batches = 0;       ///< admission batches served
    uint64_t rows_scored = 0;   ///< (user, item) candidate rows scored
    uint64_t max_batch = 0;     ///< largest batch actually coalesced
    uint64_t publishes = 0;     ///< Publish() calls
  };
  Stats stats() const;

  /// Totals of the demand-paged user-representation cache; all-zero until
  /// a lazy Publish creates one (full warm-up mode never does).
  ReprCache::Stats user_cache_stats() const;

  // -- Observability plane (read by StatsEndpoint and tests) -----------------

  const ServerConfig& config() const { return config_; }
  /// Whether a model version has been published (healthz readiness).
  bool model_published() const;
  /// Whether the queue still accepts requests (false after Stop).
  bool accepting() const { return !queue_.closed(); }
  /// Requests accepted but not yet taken into a batch.
  size_t queue_depth() const { return queue_.size(); }
  SloTracker& slo() { return slo_; }
  const SloTracker& slo() const { return slo_; }
  /// The stats endpoint; nullptr when no stats socket is configured or
  /// Start() hasn't run. Exposed so tests can call Handle() directly.
  StatsEndpoint* stats_endpoint() { return stats_.get(); }

 private:
  struct Reply {
    std::vector<Recommendation> recommendations;
    uint64_t queue_wait_ns = 0;
    uint64_t exec_ns = 0;
    uint64_t batch_seq = 0;
  };

  struct Request {
    int64_t user = 0;
    uint64_t id = 0;
    uint64_t enqueue_ns = 0;  ///< 0 when timing is off
    std::promise<Reply> result;
  };

  void Loop();
  void ServeBatch(std::vector<Request>& batch);

  /// Reusable candidate buffers of the admission thread: the per-request
  /// full-catalog lists keep their capacity across batches (scoring and
  /// selection scratch lives in ScoreAndSelectTopN). Touched only by the
  /// Loop thread.
  struct BatchScratch {
    std::vector<std::vector<int64_t>> candidates;
    std::vector<int64_t> batch_users;
  };
  BatchScratch scratch_;

  const ServerConfig config_;
  const UserItemGraph& train_graph_;

  /// Model and index swap as one unit under state_mu_ so a reader can
  /// never pair a model with another version's index.
  mutable std::mutex state_mu_;
  std::shared_ptr<Recommender> model_;
  std::shared_ptr<const ItemIndex> index_;

  /// Lazy-warm-up state: the user-representation cache (created by the
  /// first lazy Publish of a supporting model, shared across publishes so
  /// the hot set survives swaps) and the version tag for its entries —
  /// bumped per Publish, so a swap invalidates the previous version's
  /// entries lazily with no flush.
  std::shared_ptr<ReprCache> user_cache_;  // guarded by state_mu_
  std::atomic<uint64_t> publish_seq_{0};

  MpmcQueue<Request> queue_;
  std::thread worker_;
  bool started_ = false;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> invalid_users_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rows_scored_{0};
  std::atomic<uint64_t> max_batch_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> next_request_id_{0};

  SloTracker slo_;
  std::unique_ptr<StatsEndpoint> stats_;
};

}  // namespace serve
}  // namespace scenerec

#endif  // SCENEREC_SERVE_SERVER_H_
