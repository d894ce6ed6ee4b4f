#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "perfbench.h"

namespace scenerec {
namespace perfbench {

double Result::E2eValue(const std::string& name) const {
  for (const Metric& m : e2e) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + static_cast<ptrdiff_t>(trim),
                                  values.end() - static_cast<ptrdiff_t>(trim)));
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<World> BuildWorld(const SyntheticConfig& config, uint64_t seed,
                                  int64_t num_negatives, WorldTimes* times) {
  auto world = std::make_unique<World>();
  const double t0 = Now();
  world->dataset = GenerateSyntheticDataset(config, seed).value();
  const double t1 = Now();
  Rng rng(SubSeed(seed, 1));
  world->split =
      MakeLeaveOneOutSplit(world->dataset, num_negatives, rng).value();
  const double t2 = Now();
  world->graph = UserItemGraph::Build(world->dataset.num_users,
                                      world->dataset.num_items,
                                      world->split.train);
  world->scene = world->dataset.BuildSceneGraph();
  const double t3 = Now();
  times->generate_s = t1 - t0;
  times->split_s = t2 - t1;
  times->graph_s = t3 - t2;
  return world;
}

SyntheticConfig JdElectronicsWorld() {
  return MakeJdConfig(JdPreset::kElectronics, 0.2);
}

ModelFactoryConfig SceneRecFactory(uint64_t seed) {
  ModelFactoryConfig config;
  config.embedding_dim = 64;
  config.seed = seed;
  return config;
}

bool SameRecommendations(const std::vector<Recommendation>& a,
                         const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void CorruptForSelfTest(std::vector<Recommendation>* recs) {
  if (!recs->empty()) {
    (*recs)[0].score = std::nextafter((*recs)[0].score, INFINITY);
  }
}

double RecallOf(const std::vector<Recommendation>& approx,
                const std::vector<Recommendation>& exact) {
  if (exact.empty()) return 1.0;
  std::unordered_set<int64_t> found;
  for (const Recommendation& r : approx) found.insert(r.item);
  int64_t hits = 0;
  for (const Recommendation& r : exact) hits += found.count(r.item);
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

void CheckOk(const Status& status) {
  SCENEREC_CHECK(status.ok()) << status.ToString();
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  // SplitMix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
}  // namespace scenerec
