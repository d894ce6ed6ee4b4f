// Benchmark program: runs one workload in-process through the library's
// public API and prints its metrics, ending with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// that holds the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--corrupt-expectation]

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/malloc_tuning.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "perfbench.h"

namespace scenerec {
namespace perfbench {
namespace {

/// Workloads, as bits of the set that reports a per-layer metric.
enum WorkloadBits : unsigned {
  kFullCatalog = 1u,
  kTwoStageSwap = 2u,
  kTrain = 4u,
  kServing = kFullCatalog | kTwoStageSwap,
  kAll = kServing | kTrain,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Workloads that must report the metric (per-layer metrics only).
  unsigned workloads = kAll;
};

// Every run prints exactly these names; BENCHMARK.json lists the same.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p75_ms", "ms"},
    {"publish_to_first_response_ms", "ms"},
    {"peak_rss_mib", "MiB"},
    {"success_rate", "ratio"},
};

// A traced run prints all of these; a layer the workload does not use
// reports 0. A workload that stops reporting a layer it uses, or reports
// one it does not, makes the run incorrect.
constexpr MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"data.split_s", "s"},
    {"graph.build_s", "s"},
    {"nn.snapshot_write_ms", "ms"},
    {"nn.snapshot_open_ms", "ms"},
    {"retrieval.index_build_ms", "ms", kTwoStageSwap},
    {"retrieval.candidates_us_per_request", "us", kTwoStageSwap},
    {"retrieval.recall_at_10", "ratio", kTwoStageSwap},
    {"eval.uninteracted_us_per_request", "us", kFullCatalog},
    {"eval.select_us_per_request", "us", kServing},
    {"models.score_rows_ns_per_row", "ns"},
    {"tensor.flops_per_request", "count", kServing},
    {"serve.queue_wait_ms_p50", "ms", kServing},
    {"serve.exec_ms_p50", "ms", kServing},
    {"serve.unattributed_pct", "%", kServing},
    {"serve.batch_size_mean", "count", kServing},
    {"serve.rows_per_request", "count", kServing},
    {"serve.publish_ms", "ms"},
    {"serve.first_response_ms", "ms"},
    {"serve.latency_p90_ms", "ms", kServing},
    {"serve.latency_p99_ms", "ms", kServing},
    {"serve.latency_samples", "count", kServing},
    {"repr_cache.hit_ratio", "ratio", kTwoStageSwap},
    {"repr_cache.misses_per_request", "count", kTwoStageSwap},
    {"train.epoch_s", "s", kTrain},
    {"train.sampling_ms", "ms", kTrain},
    {"train.forward_ms", "ms", kTrain},
    {"train.backward_ms", "ms", kTrain},
    {"train.optimizer_ms", "ms", kTrain},
    {"train.eval_ms", "ms", kTrain},
    {"train.test_ndcg_at_10", "ratio", kTrain},
    {"train.test_hr_at_10", "ratio", kTrain},
    {"pool.caller_wait_ms", "ms", kTrain},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_full_catalog|serve_two_stage_swap|train --seed N "
               "--seconds S --trace 0|1 [--source ID] "
               "[--corrupt-expectation]\n",
               message);
  return 2;
}

/// Aggregate CPU time counters of the host (/proc/stat "cpu" line).
std::vector<double> CpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<double> times;
  double t = 0.0;
  while (times.size() < 8 && stat >> t) times.push_back(t);
  return times;
}

Result Run(const Options& options) {
  const std::vector<double> cpu0 = CpuTimes();
  Result result;
  if (options.workload == "serve_full_catalog") {
    result = RunServeFullCatalog(options);
  } else if (options.workload == "serve_two_stage_swap") {
    result = RunServeTwoStageSwap(options);
  } else {
    result = RunTrain(options);
  }
  result.E2e("success_rate", result.SuccessRate(), "ratio");
  // CPU time the hypervisor gave to other guests: the usual cause of a
  // run that is slow for no reason of its own.
  const std::vector<double> cpu1 = CpuTimes();
  if (cpu0.size() == 8 && cpu1.size() == 8) {
    double total = 0.0;
    for (size_t i = 0; i < 8; ++i) total += cpu1[i] - cpu0[i];
    result.notes.push_back(StrFormat(
        "host steal %.1f%% of CPU time during the run",
        total > 0.0 ? 100.0 * (cpu1[7] - cpu0[7]) / total : 0.0));
  }
  return result;
}

std::string Number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return std::string(Trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

/// The WorkloadBits bit of a (valid) workload name.
unsigned WorkloadBit(const std::string& workload) {
  if (workload == "serve_full_catalog") return kFullCatalog;
  if (workload == "serve_two_stage_swap") return kTwoStageSwap;
  return kTrain;
}

/// Picks `specs` out of `measured` in spec order. A metric the workload
/// (one WorkloadBits bit) must report but did not, one it reported but
/// should not, and a non-finite value make the run incorrect; a value not
/// reported prints as 0.
std::vector<Metric> Select(const std::vector<Metric>& measured,
                           const MetricSpec* specs, size_t count,
                           unsigned workload, bool* correct) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) {
    by_name[m.name] = m.value;
    bool listed = false;
    for (size_t i = 0; i < count; ++i) {
      listed = listed ||
               (m.name == specs[i].name && (specs[i].workloads & workload));
    }
    if (!listed) {
      std::fprintf(stderr, "perfbench: unexpected metric %s\n", m.name.c_str());
      *correct = false;
    }
  }
  std::vector<Metric> out;
  for (size_t i = 0; i < count; ++i) {
    auto it = by_name.find(specs[i].name);
    double value = it == by_name.end() ? 0.0 : it->second;
    if ((specs[i].workloads & workload) &&
        (it == by_name.end() || !std::isfinite(value))) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   specs[i].name);
      *correct = false;
      value = 0.0;
    }
    out.push_back({specs[i].name, value, specs[i].unit});
  }
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace scenerec

int main(int argc, char** argv) {
  using namespace scenerec;
  using namespace scenerec::perfbench;
  Options options;
  std::string source = "unknown";
  int64_t trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-expectation") {
      options.corrupt_expectation = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      trace = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--source" && has_value) {
      source = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (options.workload != "serve_full_catalog" &&
      options.workload != "serve_two_stage_swap" &&
      options.workload != "train") {
    return Usage("unknown --workload");
  }
  if (options.seconds < 1) return Usage("--seconds must be >= 1");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  // As the repository's own binaries do at startup.
  TuneAllocatorForTraining();

  options.work_dir =
      StrFormat(".bench_build/run-%lld", static_cast<long long>(getpid()));
  std::filesystem::create_directories(options.work_dir);

  std::printf(
      "context {\"workload\": %s, \"seed\": %llu, \"seconds\": %lld, "
      "\"trace\": %lld, \"nproc\": %u, \"cpu\": %s, \"build_type\": %s, "
      "\"scenerec_native\": %s, \"compiler\": %s, \"source\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      static_cast<long long>(options.seconds), static_cast<long long>(trace),
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_NATIVE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(source).c_str());
  std::fflush(stdout);

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  const auto absorb = [&](const Result& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& note : r.notes) std::printf("note %s\n", note.c_str());
  };
  if (trace == 0) {
    const Result result = Run(options);
    absorb(result);
    metrics = Select(result.e2e, kEndToEnd, std::size(kEndToEnd),
                     WorkloadBit(options.workload), &correct);
    PrintMetrics("end-to-end metrics", metrics);
  } else {
    // Tracing overhead: the same seed untraced, then traced (telemetry on,
    // per-stage replay after the window).
    const Result plain = Run(options);
    absorb(plain);
    telemetry::Telemetry::SetEnabled(true);
    Options traced_options = options;
    traced_options.traced = true;
    const Result traced = Run(traced_options);
    absorb(traced);
    std::printf("tracing overhead (traced vs untraced, same seed):\n");
    for (const MetricSpec& spec : kEndToEnd) {
      const double a = plain.E2eValue(spec.name);
      const double b = traced.E2eValue(spec.name);
      std::printf("  %-38s %14.6g -> %14.6g %s (%+.2f%%)\n", spec.name, a, b,
                  spec.unit, a == 0.0 ? 0.0 : 100.0 * (b - a) / a);
    }
    std::vector<Metric> layers = traced.layers;
    const double plain_tput = plain.E2eValue("throughput_per_s");
    const double traced_tput = traced.E2eValue("throughput_per_s");
    layers.push_back({"trace.overhead_pct",
                      100.0 * (plain_tput - traced_tput) / plain_tput, "%"});
    metrics = Select(layers, kPerLayer, std::size(kPerLayer),
                     WorkloadBit(options.workload), &correct);
    PrintMetrics("per-layer metrics (traced run)", metrics);
  }
  std::filesystem::remove_all(options.work_dir);

  correct = correct && failed == 0 && attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
