#ifndef SCENEREC_SERVE_OBSERVE_H_
#define SCENEREC_SERVE_OBSERVE_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "common/socket_server.h"
#include "common/status.h"
#include "common/windowed_histogram.h"
#include "serve/server.h"

namespace scenerec {
namespace serve {

// Live observability plane of the serving daemon (docs/observability.md,
// "Live serving observability"): the stats endpoint that serves every verb
// over the daemon's unix-domain socket.

/// The introspection server: owns the rolling-window histograms, the unix
/// socket, and the ticker thread that rotates the window during idle.
///
/// Protocol (shared framing in common/socket_server.h): one LF-terminated
/// verb per connection, response `OK <bytes>\n<payload>` or
/// `ERR <message>\n`. Verbs:
///   stats    full telemetry snapshot JSON + windows + server + slo
///   metrics  Prometheus text exposition (cumulative + windowed summaries)
///   healthz  readiness JSON: model published, queue accepting, SLO state
///   vars     flat `key value` lines (what scenerec_stat's table parses)
///   trace    Trace::Drain() as Chrome trace JSON: the spans every thread
///            recorded since the last drain (no events unless tracing is on)
class StatsEndpoint {
 public:
  StatsEndpoint(Server& server, std::string socket_path);
  ~StatsEndpoint();

  StatsEndpoint(const StatsEndpoint&) = delete;
  StatsEndpoint& operator=(const StatsEndpoint&) = delete;

  /// Binds the socket and starts the ticker. Fails (daemon keeps serving)
  /// on bad paths / bind errors.
  Status Start();
  void Stop();

  /// Serves one verb — the socket handler, and the direct entry point for
  /// tests that don't want a real socket. Stats-bearing verbs tick the
  /// window first, so a scrape is never staler than its own arrival.
  StatusOr<std::string> Handle(const std::string& verb);

  const std::string& socket_path() const { return socket_path_; }

 private:
  /// Folds a fresh cumulative snapshot into the window ring and pushes the
  /// windowed request p99 into the SLO tracker.
  void Tick();
  void TickerLoop();

  std::string StatsJson();
  std::string Metrics();
  std::string Healthz();
  std::string Vars();

  Server& server_;
  const std::string socket_path_;
  telemetry::WindowedHistograms windows_;
  UnixSocketServer socket_;

  std::thread ticker_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  bool started_ = false;
};

}  // namespace serve
}  // namespace scenerec

#endif  // SCENEREC_SERVE_OBSERVE_H_
