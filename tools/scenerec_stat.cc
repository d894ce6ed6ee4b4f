// scenerec_stat — live scraper for the serving daemon's stats socket
// (docs/observability.md, "Live serving observability").
//
// Default mode scrapes the `vars` verb once and pretty-prints a live table:
// server state, windowed QPS and latency percentiles, the batch-size
// distribution, and SLO budget. Other modes pass raw verbs through:
//
//   scenerec_stat --socket=/tmp/scenerec.sock            # table, once
//   scenerec_stat --socket=... --watch=2                 # redraw every 2s
//   scenerec_stat --socket=... --json                    # `stats` JSON
//   scenerec_stat --socket=... --prom                    # Prometheus text
//   scenerec_stat --socket=... --healthz                 # exit 0 iff ok
//   scenerec_stat --socket=... --trace > trace.json      # drain trace spans
//   scenerec_stat --selftest                             # self-contained
//
// The selftest stands up a real Server (an untrained BPR-MF on a synthetic
// dataset — no training needed) with tracing on, drives traffic, and
// exercises every verb plus the table renderer end to end over the actual
// unix socket; it drains `trace` while a client is still issuing requests.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/socket_server.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "models/bpr_mf.h"
#include "serve/server.h"

namespace scenerec {
namespace {

// -- Formatting helpers ------------------------------------------------------

std::string FormatNs(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string FormatCount(double v) {
  char buf[32];
  if (v < 1e4) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else if (v < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else if (v < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  }
  return buf;
}

std::string FormatBytes(double v) {
  char buf[32];
  if (v < 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0fB", v);
  } else if (v < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", v / 1024.0);
  } else if (v < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", v / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", v / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string Pad(const std::string& s, size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string PadLeft(const std::string& s, size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

// -- `vars` parsing -----------------------------------------------------------

/// One distribution row from a `hist` or `window` line.
struct Dist {
  std::string unit;
  double count = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};

struct WBucket {
  uint64_t low = 0;
  uint64_t high = 0;
  uint64_t count = 0;
};

/// Parsed `vars` payload (the flat `key value` lines Vars() emits).
struct VarsData {
  std::map<std::string, double> scalars;  ///< mono_ns, uptime_seconds, ...
  std::map<std::string, double> server;
  std::map<std::string, double> cache;  ///< demand-paged user-repr cache
  std::map<std::string, double> slo;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Dist> hists;
  std::map<std::string, Dist> windows;
  std::map<std::string, std::vector<WBucket>> wbuckets;
};

VarsData ParseVars(const std::string& text) {
  VarsData v;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string key;
    if (!(row >> key)) continue;
    if (key == "server" || key == "slo" || key == "cache") {
      std::string name;
      double value = 0;
      if (row >> name >> value) {
        (key == "server" ? v.server : key == "slo" ? v.slo : v.cache)[name] =
            value;
      }
    } else if (key == "counter" || key == "gauge") {
      std::string name;
      double value = 0;
      if (row >> name >> value) {
        (key == "counter" ? v.counters : v.gauges)[name] = value;
      }
    } else if (key == "hist" || key == "window") {
      std::string name;
      Dist d;
      if (row >> name >> d.unit >> d.count >> d.mean >> d.p50 >> d.p99 >>
          d.max) {
        (key == "hist" ? v.hists : v.windows)[name] = d;
      }
    } else if (key == "wbucket") {
      std::string name;
      WBucket b;
      if (row >> name >> b.low >> b.high >> b.count) {
        v.wbuckets[name].push_back(b);
      }
    } else {
      double value = 0;
      if (row >> value) v.scalars[key] = value;
    }
  }
  return v;
}

// -- Table rendering ----------------------------------------------------------

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::string DistValue(const Dist& d, double value) {
  return d.unit == "ns" ? FormatNs(value) : FormatCount(value);
}

std::string RenderTable(const VarsData& v, const std::string& socket_path) {
  std::string out;
  out += "scenerec daemon @ " + socket_path + "\n";
  out += "  up " + FormatNs(Get(v.scalars, "uptime_seconds") * 1e9) +
         "   rss " + FormatBytes(Get(v.scalars, "rss_bytes")) + "\n\n";

  out += "server    published " +
         std::string(Get(v.server, "published") != 0 ? "yes" : "NO") +
         "   accepting " +
         std::string(Get(v.server, "accepting") != 0 ? "yes" : "NO") +
         "   publishes " + FormatCount(Get(v.server, "publishes")) + "\n";
  out += "requests  " + FormatCount(Get(v.server, "requests")) + " served, " +
         FormatCount(Get(v.server, "rejected")) + " rejected   batches " +
         FormatCount(Get(v.server, "batches")) + "   rows " +
         FormatCount(Get(v.server, "rows_scored")) + "   max_batch " +
         FormatCount(Get(v.server, "max_batch")) + "\n";

  // The demand-paged user-repr cache section appears only when lazy warm-up
  // is active (capacity 0 means full warm-up — no cache to report).
  if (Get(v.cache, "capacity_bytes") > 0) {
    const double lookups = Get(v.cache, "hits") + Get(v.cache, "misses");
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f%%",
                  lookups == 0 ? 0.0 : 100.0 * Get(v.cache, "hits") / lookups);
    out += "cache     " + FormatCount(Get(v.cache, "entries")) +
           " users resident (" + FormatBytes(Get(v.cache, "bytes")) + " of " +
           FormatBytes(Get(v.cache, "capacity_bytes")) + ")   hit rate " +
           rate + "   evictions " +
           FormatCount(Get(v.cache, "evictions")) + "\n";
  }
  out += "\n";

  const double window_s = Get(v.scalars, "window_ns") * 1e-9;
  const auto req = v.windows.find("serve/request_ns");
  const double qps = window_s > 0 && req != v.windows.end()
                         ? req->second.count / window_s
                         : 0.0;
  char qps_buf[32];
  std::snprintf(qps_buf, sizeof(qps_buf), "%.1f", qps);
  out += "window (last " + FormatNs(Get(v.scalars, "window_ns")) + " of " +
         FormatNs(Get(v.scalars, "max_window_ns")) + ")   qps " + qps_buf +
         "\n";
  out += "  " + Pad("metric", 24) + PadLeft("count", 10) +
         PadLeft("mean", 10) + PadLeft("p50", 10) + PadLeft("p99", 10) +
         PadLeft("max", 10) + "\n";
  for (const auto& [name, d] : v.windows) {
    out += "  " + Pad(name, 24) + PadLeft(FormatCount(d.count), 10) +
           PadLeft(DistValue(d, d.mean), 10) +
           PadLeft(DistValue(d, d.p50), 10) +
           PadLeft(DistValue(d, d.p99), 10) +
           PadLeft(DistValue(d, d.max), 10) + "\n";
  }

  const auto bs = v.wbuckets.find("serve/batch_size");
  if (bs != v.wbuckets.end() && !bs->second.empty()) {
    out += "\nbatch size distribution (window)\n";
    uint64_t peak = 1;
    for (const WBucket& b : bs->second) peak = std::max(peak, b.count);
    for (const WBucket& b : bs->second) {
      const int bar =
          static_cast<int>(30.0 * static_cast<double>(b.count) /
                           static_cast<double>(peak));
      out += "  " +
             PadLeft("[" + std::to_string(b.low) + ", " +
                         std::to_string(b.high) + "]",
                     14) +
             "  " + Pad(std::string(static_cast<size_t>(bar), '#'), 31) +
             FormatCount(static_cast<double>(b.count)) + "\n";
    }
  }

  out += "\nslo       ";
  if (Get(v.slo, "enabled") == 0) {
    out += "disabled\n";
  } else {
    char burn[32];
    std::snprintf(burn, sizeof(burn), "%.2f", Get(v.slo, "budget_burn"));
    out += "target p99 " + FormatNs(Get(v.slo, "target_p99_ns")) +
           "   windowed p99 " + FormatNs(Get(v.slo, "windowed_p99_ns")) +
           "   violations " + FormatCount(Get(v.slo, "over_target")) +
           "   budget burn " + burn +
           (Get(v.slo, "ok") != 0 ? "   OK" : "   BREACHED") + "\n";
  }
  return out;
}

// -- Modes -------------------------------------------------------------------

int RawVerb(const std::string& socket_path, const std::string& verb,
            int timeout_ms) {
  StatusOr<std::string> reply = UnixSocketRequest(socket_path, verb,
                                                  timeout_ms);
  if (!reply.ok()) {
    std::cerr << "scenerec_stat: " << reply.status().ToString() << "\n";
    return 1;
  }
  std::cout << reply.value();
  return 0;
}

int Healthz(const std::string& socket_path, int timeout_ms) {
  StatusOr<std::string> reply =
      UnixSocketRequest(socket_path, "healthz", timeout_ms);
  if (!reply.ok()) {
    std::cerr << "scenerec_stat: " << reply.status().ToString() << "\n";
    return 1;
  }
  std::cout << reply.value();
  // Exit code mirrors readiness so healthz slots into scripts directly.
  return reply.value().find("\"ok\": true") != std::string::npos ? 0 : 2;
}

int Table(const std::string& socket_path, int timeout_ms, int64_t watch_s) {
  for (;;) {
    StatusOr<std::string> reply =
        UnixSocketRequest(socket_path, "vars", timeout_ms);
    if (!reply.ok()) {
      std::cerr << "scenerec_stat: " << reply.status().ToString() << "\n";
      return 1;
    }
    if (watch_s > 0) std::cout << "\x1b[H\x1b[2J";  // clear for redraw
    std::cout << RenderTable(ParseVars(reply.value()), socket_path);
    std::cout.flush();
    if (watch_s <= 0) return 0;
    std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  }
}

// -- Selftest ----------------------------------------------------------------

#define STAT_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::cerr << "scenerec_stat selftest FAILED at " << __FILE__ << ":"   \
                << __LINE__ << ": " #cond "\n";                             \
      return 1;                                                             \
    }                                                                       \
  } while (0)

int SelfTest() {
  telemetry::Telemetry::SetEnabled(true);
  trace::Trace::Start();

  SyntheticConfig config;
  config.name = "stat-selftest";
  config.num_users = 24;
  config.num_items = 96;
  config.num_categories = 6;
  config.num_scenes = 5;
  config.sessions_per_user = 4;
  config.session_length = 5;
  auto dataset = GenerateSyntheticDataset(config, 11);
  STAT_REQUIRE(dataset.ok());
  Rng rng(5);
  auto split = MakeLeaveOneOutSplit(*dataset, /*num_negatives=*/5, rng);
  STAT_REQUIRE(split.ok());
  const UserItemGraph graph = UserItemGraph::Build(
      dataset->num_users, dataset->num_items, split->train);

  const std::string socket_path =
      "/tmp/scenerec_stat_selftest_" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig server_config;
  server_config.top_n = 5;
  server_config.max_batch = 8;
  server_config.max_delay_us = 50;
  server_config.queue_capacity = 64;
  server_config.stats_socket = socket_path;
  server_config.stats_window_ms = 50;
  server_config.stats_window_intervals = 10;
  server_config.slo_target_p99_us = 1'000'000;  // generous: stays healthy

  serve::Server server(server_config, graph);
  Rng model_rng(6);
  server.Publish(std::make_shared<BprMf>(dataset->num_users,
                                        dataset->num_items, 8, model_rng));
  server.Start();

  // Drive traffic so every windowed metric has samples.
  std::vector<Recommendation> recs;
  serve::Server::RequestTicket ticket;
  for (int i = 0; i < 200; ++i) {
    STAT_REQUIRE(server.TopN(i % dataset->num_users, &recs, &ticket));
    STAT_REQUIRE(!recs.empty());
    STAT_REQUIRE(ticket.id > 0);
  }

  // vars -> parse -> table.
  StatusOr<std::string> vars = UnixSocketRequest(socket_path, "vars", 5000);
  STAT_REQUIRE(vars.ok());
  const VarsData parsed = ParseVars(vars.value());
  STAT_REQUIRE(Get(parsed.server, "requests") >= 200);
  STAT_REQUIRE(Get(parsed.server, "published") == 1);
  // The cache lines are always present; BPR-MF serves full warm-up, so the
  // demand-paged cache reports zero capacity and the table omits its row.
  STAT_REQUIRE(parsed.cache.count("hits") == 1);
  STAT_REQUIRE(parsed.cache.count("capacity_bytes") == 1);
  STAT_REQUIRE(Get(parsed.cache, "capacity_bytes") == 0);
  STAT_REQUIRE(parsed.windows.count("serve/request_ns") == 1);
  STAT_REQUIRE(parsed.windows.at("serve/request_ns").count > 0);
  const std::string table = RenderTable(parsed, socket_path);
  STAT_REQUIRE(table.find("serve/request_ns") != std::string::npos);
  STAT_REQUIRE(table.find("qps") != std::string::npos);
  STAT_REQUIRE(table.find("published yes") != std::string::npos);

  // The other verbs over the same socket.
  StatusOr<std::string> health =
      UnixSocketRequest(socket_path, "healthz", 5000);
  STAT_REQUIRE(health.ok());
  STAT_REQUIRE(health.value().find("\"ok\": true") != std::string::npos);
  StatusOr<std::string> stats = UnixSocketRequest(socket_path, "stats", 5000);
  STAT_REQUIRE(stats.ok());
  STAT_REQUIRE(stats.value().find("\"windows\"") != std::string::npos);
  STAT_REQUIRE(stats.value().find("\"slo\"") != std::string::npos);
  StatusOr<std::string> prom = UnixSocketRequest(socket_path, "metrics", 5000);
  STAT_REQUIRE(prom.ok());
  STAT_REQUIRE(prom.value().find("scenerec_serve_daemon_requests") !=
               std::string::npos);
  STAT_REQUIRE(prom.value().find("scenerec_serve_repr_cache_hits") !=
               std::string::npos);
  // `trace` drains the trace rings while a client keeps issuing requests.
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::thread client([&] {
    std::vector<Recommendation> got;
    for (int64_t u = 0; !stop.load(); u = (u + 1) % dataset->num_users) {
      if (server.TopN(u, &got)) served.fetch_add(1);
    }
  });
  while (served.load() < 10) std::this_thread::yield();
  StatusOr<std::string> scraped =
      UnixSocketRequest(socket_path, "trace", 5000);
  stop.store(true);
  client.join();
  trace::Trace::Stop();
  STAT_REQUIRE(scraped.ok());
  STAT_REQUIRE(scraped.value().find("\"serve/request\"") != std::string::npos);
  STAT_REQUIRE(scraped.value().find("req=") != std::string::npos);
  STAT_REQUIRE(UnixSocketRequest(socket_path, "no_such_verb", 5000)
                   .status()
                   .code() != StatusCode::kOk);

  server.Stop();
  // The endpoint unlinks its socket on Stop; a fresh connect must fail.
  STAT_REQUIRE(!UnixSocketRequest(socket_path, "vars", 500).ok());

  std::cout << "scenerec_stat selftest passed\n";
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("socket", "/tmp/scenerec.sock",
                  "stats socket path of the serving daemon");
  flags.AddBool("json", false, "print the `stats` verb's JSON and exit");
  flags.AddBool("prom", false, "print Prometheus text exposition and exit");
  flags.AddBool("healthz", false,
                "print readiness JSON; exit 0 iff healthy, 2 if degraded");
  flags.AddBool("trace", false,
                "drain the daemon's trace spans (recorded since the last "
                "drain) as Chrome trace JSON");
  flags.AddInt64("watch", 0, "redraw the table every N seconds (0 = once)");
  flags.AddInt64("timeout_ms", 5000, "per-request socket timeout");
  flags.AddBool("selftest", false,
                "run the self-contained end-to-end check and exit");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Help();
    return 1;
  }
  if (flags.GetBool("selftest")) return SelfTest();

  const std::string socket_path = flags.GetString("socket");
  const int timeout_ms = static_cast<int>(flags.GetInt64("timeout_ms"));
  if (flags.GetBool("json")) return RawVerb(socket_path, "stats", timeout_ms);
  if (flags.GetBool("prom")) {
    return RawVerb(socket_path, "metrics", timeout_ms);
  }
  if (flags.GetBool("trace")) return RawVerb(socket_path, "trace", timeout_ms);
  if (flags.GetBool("healthz")) return Healthz(socket_path, timeout_ms);
  return Table(socket_path, timeout_ms, flags.GetInt64("watch"));
}

}  // namespace
}  // namespace scenerec

int main(int argc, char** argv) { return scenerec::Main(argc, argv); }
