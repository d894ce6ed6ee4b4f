#ifndef SCENEREC_PERFBENCH_PERFBENCH_H_
#define SCENEREC_PERFBENCH_PERFBENCH_H_

// Shared pieces of the end-to-end benchmark program (see README.md in this
// directory): run options, the result record every workload fills, timing
// and order statistics, and the synthetic worlds the workloads run on.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "graph/scene_graph.h"
#include "models/factory.h"

namespace scenerec {
namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window (the train workload runs a fixed
  /// epoch count sized to about this long instead).
  int64_t seconds = 10;
  /// Traced run: telemetry on, per-stage replay, per-layer metrics.
  bool traced = false;
  /// Self-test hook: perturb one reference answer, which the output
  /// checks must then report as a failure.
  bool corrupt_expectation = false;
  /// Scratch directory for snapshot files; removed when the run ends.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `e2e` are the end-to-end metrics of an
/// untraced run, `layers` the per-layer metrics of a traced run; `notes`
/// are extra human-readable lines (stage shares, sample sizes).
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double SuccessRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  /// The metric named `name` in `e2e`, or NaN.
  double E2eValue(const std::string& name) const;
};

/// Monotonic wall clock in seconds (std::chrono::steady_clock).
double Now();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& values);
/// Mean of the middle half of `values` (the n/4 smallest and n/4 largest
/// dropped); NaN when empty. Unlike the median it moves smoothly when the
/// samples come from two host speed phases in a changing proportion.
double InterquartileMean(std::vector<double> values);

/// Peak resident set size of this process so far (getrusage), in MiB.
double PeakRssMib();

/// A generated dataset with its leave-one-out split and the graphs models
/// read. Heap-allocated and never moved: models and servers keep pointers
/// into the graphs.
struct World {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph graph;
  SceneGraph scene;

  ModelContext context() const { return ModelContext{&graph, &scene}; }
};

/// Set-up stage timings of one BuildWorld call, in seconds.
struct WorldTimes {
  double generate_s = 0.0;
  double split_s = 0.0;
  double graph_s = 0.0;
};

/// Generates `config` from `seed`, splits it with `num_negatives` sampled
/// negatives per evaluation case, and builds the training graphs.
std::unique_ptr<World> BuildWorld(const SyntheticConfig& config, uint64_t seed,
                                  int64_t num_negatives, WorldTimes* times);

/// The paper's JD Electronics vertical at scale 0.2: 768 users, 10,405 items.
SyntheticConfig JdElectronicsWorld();

/// SceneRec at d=64 (Section 5.3) with init seed `seed`.
ModelFactoryConfig SceneRecFactory(uint64_t seed);

/// Bitwise equality of two ranked lists (item ids and score bit patterns).
bool SameRecommendations(const std::vector<Recommendation>& a,
                         const std::vector<Recommendation>& b);

/// Makes a reference answer wrong by one float ulp: the self-test of the
/// output checks (--corrupt-expectation).
void CorruptForSelfTest(std::vector<Recommendation>* recs);

/// Share of `exact`'s items that `approx` also contains.
double RecallOf(const std::vector<Recommendation>& approx,
                const std::vector<Recommendation>& exact);

/// Aborts with the status message unless `status` is OK: set-up steps on
/// generated inputs never fail, so a failure is a defect, not a result.
void CheckOk(const Status& status);

/// A derived seed for one purpose of a run, so streams never correlate.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

Result RunServeFullCatalog(const Options& options);
Result RunServeTwoStageSwap(const Options& options);
Result RunTrain(const Options& options);

}  // namespace perfbench
}  // namespace scenerec

#endif  // SCENEREC_PERFBENCH_PERFBENCH_H_
