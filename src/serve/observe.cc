#include "serve/observe.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace scenerec {
namespace serve {

namespace {

std::string Fd(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void AppendHistogramJson(std::string& out, const HistogramData& data,
                         const std::string& unit) {
  out += "{\"unit\": \"" + unit + "\"";
  out += ", \"count\": " + std::to_string(data.count);
  out += ", \"sum\": " + std::to_string(data.sum);
  out += ", \"max\": " + std::to_string(data.max);
  out += ", \"mean\": " + Fd(data.Mean());
  out += ", \"p50\": " + Fd(data.Percentile(0.50));
  out += ", \"p90\": " + Fd(data.Percentile(0.90));
  out += ", \"p99\": " + Fd(data.Percentile(0.99));
  out += ", \"buckets\": [";
  bool first = true;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (data.buckets[b] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(HistogramBucketLow(b)) + ", " +
           std::to_string(HistogramBucketHigh(b)) + ", " +
           std::to_string(data.buckets[b]) + "]";
  }
  out += "]}";
}

void AppendSloJson(std::string& out, const SloTracker::State& s) {
  out += "{\"enabled\": ";
  out += s.enabled ? "true" : "false";
  out += ", \"target_p99_ns\": " + std::to_string(s.target_p99_ns);
  out += ", \"error_budget\": " + Fd(s.error_budget);
  out += ", \"total\": " + std::to_string(s.total);
  out += ", \"over_target\": " + std::to_string(s.over_target);
  out += ", \"over_fraction\": " + Fd(s.over_fraction);
  out += ", \"budget_burn\": " + Fd(s.budget_burn);
  out += ", \"windowed_p99_ns\": " + std::to_string(s.windowed_p99_ns);
  out += ", \"window_breach\": ";
  out += s.window_breach ? "true" : "false";
  out += ", \"ok\": ";
  out += s.ok ? "true" : "false";
  out += "}";
}

}  // namespace

// -- StatsEndpoint -----------------------------------------------------------

StatsEndpoint::StatsEndpoint(Server& server, std::string socket_path)
    : server_(server),
      socket_path_(std::move(socket_path)),
      windows_(telemetry::WindowedHistogramOptions{
          static_cast<uint64_t>(server.config().stats_window_ms) * 1'000'000,
          static_cast<int>(server.config().stats_window_intervals)}) {}

StatsEndpoint::~StatsEndpoint() { Stop(); }

Status StatsEndpoint::Start() {
  SCENEREC_CHECK(!started_);
  // Baseline the window before traffic is visible through it: the first
  // tick records where the cumulative histograms stand without attributing
  // pre-endpoint history into the window.
  Tick();
  const Status status = socket_.Start(
      socket_path_, [this](const std::string& verb) { return Handle(verb); });
  if (!status.ok()) return status;
  started_ = true;
  ticker_ = std::thread([this] { TickerLoop(); });
  return Status::OK();
}

void StatsEndpoint::Stop() {
  if (!started_) return;
  started_ = false;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  socket_.Stop();
}

void StatsEndpoint::Tick() {
  windows_.Tick(telemetry::Telemetry::Snapshot(), trace::internal::NowNs());
  const telemetry::WindowedHistograms::View view =
      windows_.Window("serve/request_ns");
  server_.slo().SetWindowedP99(
      view.found && view.data.count > 0
          ? static_cast<uint64_t>(view.data.Percentile(0.99))
          : 0);
}

void StatsEndpoint::TickerLoop() {
  const auto interval =
      std::chrono::milliseconds(server_.config().stats_window_ms);
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!ticker_stop_) {
    if (ticker_cv_.wait_for(lock, interval, [this] { return ticker_stop_; })) {
      return;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

StatusOr<std::string> StatsEndpoint::Handle(const std::string& verb) {
  if (verb == "stats" || verb == "metrics" || verb == "healthz" ||
      verb == "vars") {
    Tick();  // a scrape is never staler than its own arrival
  }
  if (verb == "stats") return StatsJson();
  if (verb == "metrics") return Metrics();
  if (verb == "healthz") return Healthz();
  if (verb == "vars") return Vars();
  if (verb == "trace") return trace::Trace::Drain().ToChromeJson();
  return Status::InvalidArgument(
      "unknown verb \"" + verb +
      "\" (expected stats | metrics | healthz | vars | trace)");
}

std::string StatsEndpoint::StatsJson() {
  // Splice the extra sections into the cumulative snapshot document: drop
  // its closing brace, append "windows" / "server" / "slo", close again.
  std::string out = telemetry::Telemetry::Snapshot().ToJson();
  out.erase(out.find_last_of('}'));

  out += ",\n  \"windows\": {\"window_ns\": ";
  bool first = true;
  std::string hists;
  uint64_t window_ns = 0;
  for (const std::string& name : windows_.Names()) {
    const telemetry::WindowedHistograms::View view = windows_.Window(name);
    window_ns = view.window_ns;
    hists += first ? "\n    " : ",\n    ";
    first = false;
    hists += "\"" + name + "\": ";
    AppendHistogramJson(hists, view.data, view.unit);
  }
  out += std::to_string(window_ns);
  out += ", \"max_window_ns\": " + std::to_string(windows_.MaxWindowNs());
  out += ", \"histograms\": {" + hists + "\n  }},";

  const Server::Stats stats = server_.stats();
  out += "\n  \"server\": {\"published\": ";
  out += server_.model_published() ? "true" : "false";
  out += ", \"accepting\": ";
  out += server_.accepting() ? "true" : "false";
  out += ", \"requests\": " + std::to_string(stats.requests);
  out += ", \"rejected\": " + std::to_string(stats.rejected);
  out += ", \"invalid_users\": " + std::to_string(stats.invalid_users);
  out += ", \"batches\": " + std::to_string(stats.batches);
  out += ", \"rows_scored\": " + std::to_string(stats.rows_scored);
  out += ", \"max_batch\": " + std::to_string(stats.max_batch);
  out += ", \"publishes\": " + std::to_string(stats.publishes) + "},";

  // Demand-paged user-representation cache (all zero in full warm-up mode).
  const ReprCache::Stats cache = server_.user_cache_stats();
  out += "\n  \"repr_cache\": {\"entries\": " + std::to_string(cache.entries);
  out += ", \"bytes\": " + std::to_string(cache.bytes);
  out += ", \"capacity_bytes\": " + std::to_string(cache.capacity_bytes);
  out += ", \"hits\": " + std::to_string(cache.hits);
  out += ", \"misses\": " + std::to_string(cache.misses);
  out += ", \"insertions\": " + std::to_string(cache.insertions);
  out += ", \"evictions\": " + std::to_string(cache.evictions) + "},";

  out += "\n  \"slo\": ";
  AppendSloJson(out, server_.slo().state());
  out += "\n}\n";
  return out;
}

std::string StatsEndpoint::Metrics() {
  std::string out = telemetry::Telemetry::Snapshot().ToPrometheus();
  // Windowed summaries ride along as gauges: a plain Prometheus scrape gets
  // the rolling p50/p99 without needing the native `stats` JSON.
  out += "# TYPE scenerec_window_seconds gauge\n";
  uint64_t window_ns = 0;
  std::string rows;
  for (const std::string& name : windows_.Names()) {
    const telemetry::WindowedHistograms::View view = windows_.Window(name);
    window_ns = view.window_ns;
    std::string prom = "scenerec_window_";
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      prom += ok ? c : '_';
    }
    rows += "# TYPE " + prom + "_count gauge\n";
    rows += prom + "_count " + std::to_string(view.data.count) + "\n";
    rows += "# TYPE " + prom + "_p50 gauge\n";
    rows += prom + "_p50 " + Fd(view.data.Percentile(0.50)) + "\n";
    rows += "# TYPE " + prom + "_p99 gauge\n";
    rows += prom + "_p99 " + Fd(view.data.Percentile(0.99)) + "\n";
  }
  out += "scenerec_window_seconds " + Fd(static_cast<double>(window_ns) * 1e-9) +
         "\n";
  out += rows;
  return out;
}

std::string StatsEndpoint::Healthz() {
  const bool published = server_.model_published();
  const bool accepting = server_.accepting();
  const SloTracker::State slo = server_.slo().state();
  const bool ok = published && accepting && slo.ok;
  std::string out = "{\"ok\": ";
  out += ok ? "true" : "false";
  out += ", \"status\": \"";
  out += ok ? "ok" : (published && accepting ? "degraded" : "unready");
  out += "\", \"published\": ";
  out += published ? "true" : "false";
  out += ", \"accepting\": ";
  out += accepting ? "true" : "false";
  out += ", \"slo\": ";
  AppendSloJson(out, slo);
  out += "}\n";
  return out;
}

std::string StatsEndpoint::Vars() {
  // Flat `key value` lines — trivially parseable, what scenerec_stat's
  // table and watch modes consume.
  const telemetry::TelemetrySnapshot snap = telemetry::Telemetry::Snapshot();
  std::string out;
  out += "mono_ns " + std::to_string(snap.process.mono_ns) + "\n";
  out += "uptime_seconds " + Fd(snap.process.uptime_seconds) + "\n";
  out += "rss_bytes " + std::to_string(snap.process.rss_bytes) + "\n";

  const Server::Stats stats = server_.stats();
  out += "server published " +
         std::to_string(server_.model_published() ? 1 : 0) + "\n";
  out += "server accepting " + std::to_string(server_.accepting() ? 1 : 0) +
         "\n";
  out += "server requests " + std::to_string(stats.requests) + "\n";
  out += "server rejected " + std::to_string(stats.rejected) + "\n";
  out += "server invalid_users " + std::to_string(stats.invalid_users) + "\n";
  out += "server batches " + std::to_string(stats.batches) + "\n";
  out += "server rows_scored " + std::to_string(stats.rows_scored) + "\n";
  out += "server max_batch " + std::to_string(stats.max_batch) + "\n";
  out += "server publishes " + std::to_string(stats.publishes) + "\n";

  // `cache` prefix: the demand-paged user-representation cache, the lines
  // scenerec_stat's cache section derives hit rate and residency from.
  const ReprCache::Stats cache = server_.user_cache_stats();
  out += "cache entries " + std::to_string(cache.entries) + "\n";
  out += "cache bytes " + std::to_string(cache.bytes) + "\n";
  out += "cache capacity_bytes " + std::to_string(cache.capacity_bytes) + "\n";
  out += "cache hits " + std::to_string(cache.hits) + "\n";
  out += "cache misses " + std::to_string(cache.misses) + "\n";
  out += "cache insertions " + std::to_string(cache.insertions) + "\n";
  out += "cache evictions " + std::to_string(cache.evictions) + "\n";

  const SloTracker::State slo = server_.slo().state();
  out += "slo enabled " + std::to_string(slo.enabled ? 1 : 0) + "\n";
  out += "slo target_p99_ns " + std::to_string(slo.target_p99_ns) + "\n";
  out += "slo total " + std::to_string(slo.total) + "\n";
  out += "slo over_target " + std::to_string(slo.over_target) + "\n";
  out += "slo budget_burn " + Fd(slo.budget_burn) + "\n";
  out += "slo windowed_p99_ns " + std::to_string(slo.windowed_p99_ns) + "\n";
  out += "slo ok " + std::to_string(slo.ok ? 1 : 0) + "\n";

  for (const telemetry::CounterSample& c : snap.counters) {
    out += "counter " + c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const telemetry::GaugeSample& g : snap.gauges) {
    out += "gauge " + g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const telemetry::HistogramSample& h : snap.histograms) {
    out += "hist " + h.name + " " + h.unit + " " +
           std::to_string(h.data.count) + " " + Fd(h.data.Mean()) + " " +
           Fd(h.data.Percentile(0.50)) + " " + Fd(h.data.Percentile(0.99)) +
           " " + std::to_string(h.data.max) + "\n";
  }
  uint64_t window_ns = 0;
  std::string rows;
  for (const std::string& name : windows_.Names()) {
    const telemetry::WindowedHistograms::View view = windows_.Window(name);
    window_ns = view.window_ns;
    rows += "window " + name + " " + view.unit + " " +
            std::to_string(view.data.count) + " " + Fd(view.data.Mean()) +
            " " + Fd(view.data.Percentile(0.50)) + " " +
            Fd(view.data.Percentile(0.99)) + " " +
            std::to_string(view.data.max) + "\n";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (view.data.buckets[b] == 0) continue;
      rows += "wbucket " + name + " " +
              std::to_string(HistogramBucketLow(b)) + " " +
              std::to_string(HistogramBucketHigh(b)) + " " +
              std::to_string(view.data.buckets[b]) + "\n";
    }
  }
  out += "window_ns " + std::to_string(window_ns) + "\n";
  out += "max_window_ns " + std::to_string(windows_.MaxWindowNs()) + "\n";
  out += rows;
  return out;
}

}  // namespace serve
}  // namespace scenerec
