// Property-based tests: invariants checked over sweeps of random seeds and
// sizes using parameterized gtest. These complement the example-based unit
// tests with "for all" style guarantees on the core substrates.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "graph/csr.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace scenerec {
namespace {

// -- Softmax invariants over random inputs -----------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoftmaxProperty, SumsToOneAndPreservesOrder) {
  Rng rng(GetParam());
  const int64_t n = 1 + static_cast<int64_t>(rng.NextInt(30));
  Tensor logits = Tensor::RandomUniform(Shape({n}), -20.0f, 20.0f, rng);
  auto p = Softmax(logits).value();
  double sum = 0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // Monotone: higher logit -> higher probability.
  const auto& l = logits.value();
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < l.size(); ++j) {
      if (l[i] > l[j]) {
        EXPECT_GE(p[i], p[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty,
                         ::testing::Range<uint64_t>(0, 16));

// -- Sigmoid/softplus identities ----------------------------------------------

class ActivationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ActivationProperty, SoftplusIsIntegralOfSigmoid) {
  // softplus(x) - softplus(-x) == x (exact identity).
  Rng rng(GetParam());
  Tensor x = Tensor::RandomUniform(Shape({16}), -30.0f, 30.0f, rng);
  auto sp_pos = Softplus(x).value();
  auto sp_neg = Softplus(Scale(x, -1.0f)).value();
  for (size_t i = 0; i < sp_pos.size(); ++i) {
    EXPECT_NEAR(sp_pos[i] - sp_neg[i], x.value()[i], 1e-4);
  }
}

TEST_P(ActivationProperty, SigmoidSymmetry) {
  // sigmoid(x) + sigmoid(-x) == 1.
  Rng rng(GetParam() + 1000);
  Tensor x = Tensor::RandomUniform(Shape({16}), -30.0f, 30.0f, rng);
  auto pos = Sigmoid(x).value();
  auto neg = Sigmoid(Scale(x, -1.0f)).value();
  for (size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(pos[i] + neg[i], 1.0f, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActivationProperty,
                         ::testing::Range<uint64_t>(0, 8));

// -- Cosine similarity bounds ---------------------------------------------------

class CosineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CosineProperty, BoundedAndScaleInvariant) {
  Rng rng(GetParam());
  const int64_t n = 2 + static_cast<int64_t>(rng.NextInt(30));
  Tensor a = Tensor::RandomUniform(Shape({n}), -2.0f, 2.0f, rng);
  Tensor b = Tensor::RandomUniform(Shape({n}), -2.0f, 2.0f, rng);
  const float c = CosineSimilarity(a, b).scalar();
  EXPECT_GE(c, -1.0001f);
  EXPECT_LE(c, 1.0001f);
  // Scaling either argument by a positive constant leaves cosine unchanged.
  const float scaled = CosineSimilarity(Scale(a, 3.7f), b).scalar();
  EXPECT_NEAR(c, scaled, 2e-3);
  // cos(a, a) == 1 for non-degenerate a.
  float norm = 0;
  for (float v : a.value()) norm += v * v;
  if (norm > 0.1f) {
    EXPECT_NEAR(CosineSimilarity(a, a).scalar(), 1.0f, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosineProperty,
                         ::testing::Range<uint64_t>(0, 16));

// -- CSR graph vs. reference adjacency matrix -----------------------------------

class CsrProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrProperty, MatchesDenseReference) {
  Rng rng(GetParam());
  const int64_t n = 2 + static_cast<int64_t>(rng.NextInt(20));
  const int64_t num_edges = static_cast<int64_t>(rng.NextInt(60));
  std::vector<Edge> edges;
  std::vector<std::vector<float>> reference(
      static_cast<size_t>(n), std::vector<float>(static_cast<size_t>(n), 0));
  for (int64_t e = 0; e < num_edges; ++e) {
    const int64_t s = static_cast<int64_t>(rng.NextInt(n));
    const int64_t t = static_cast<int64_t>(rng.NextInt(n));
    const float w = rng.NextFloat(0.1f, 2.0f);
    edges.push_back({s, t, w});
    reference[static_cast<size_t>(s)][static_cast<size_t>(t)] += w;
  }
  CsrGraph graph = CsrGraph::FromEdges(n, n, edges);
  for (int64_t s = 0; s < n; ++s) {
    auto neighbors = graph.Neighbors(s);
    auto weights = graph.Weights(s);
    // Sorted, no duplicates.
    EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
    EXPECT_EQ(std::adjacent_find(neighbors.begin(), neighbors.end()),
              neighbors.end());
    // Weights match the dense reference, and every nonzero cell appears.
    int64_t nonzero = 0;
    for (int64_t t = 0; t < n; ++t) {
      nonzero += reference[static_cast<size_t>(s)][static_cast<size_t>(t)] > 0;
      EXPECT_EQ(graph.HasEdge(s, t),
                reference[static_cast<size_t>(s)][static_cast<size_t>(t)] > 0);
    }
    EXPECT_EQ(static_cast<int64_t>(neighbors.size()), nonzero);
    for (size_t j = 0; j < neighbors.size(); ++j) {
      EXPECT_FLOAT_EQ(
          weights[j],
          reference[static_cast<size_t>(s)][static_cast<size_t>(neighbors[j])]);
    }
  }
}

TEST_P(CsrProperty, SpMMMatchesDenseProduct) {
  Rng rng(GetParam() + 500);
  const int64_t n = 2 + static_cast<int64_t>(rng.NextInt(12));
  const int64_t d = 1 + static_cast<int64_t>(rng.NextInt(6));
  std::vector<Edge> edges;
  std::vector<std::vector<float>> dense(
      static_cast<size_t>(n), std::vector<float>(static_cast<size_t>(n), 0));
  for (int64_t e = 0; e < n * 3; ++e) {
    const int64_t s = static_cast<int64_t>(rng.NextInt(n));
    const int64_t t = static_cast<int64_t>(rng.NextInt(n));
    const float w = rng.NextFloat(-1.0f, 1.0f);
    edges.push_back({s, t, w});
    dense[static_cast<size_t>(s)][static_cast<size_t>(t)] += w;
  }
  CsrGraph adj = CsrGraph::FromEdges(n, n, edges);
  Tensor x = Tensor::RandomUniform(Shape({n, d}), -1, 1, rng);
  Tensor out = SpMM(&adj, nullptr, x);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < d; ++c) {
      float want = 0;
      for (int64_t t = 0; t < n; ++t) {
        want += dense[static_cast<size_t>(i)][static_cast<size_t>(t)] *
                x.at(t, c);
      }
      EXPECT_NEAR(out.at(i, c), want, 1e-4) << "row " << i << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrProperty,
                         ::testing::Range<uint64_t>(0, 12));

// -- Ranking metric invariants -----------------------------------------------------

class RankingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankingProperty, RankMatchesSortReference) {
  Rng rng(GetParam());
  const int64_t n = 1 + static_cast<int64_t>(rng.NextInt(100));
  std::vector<float> negatives;
  for (int64_t i = 0; i < n; ++i) {
    negatives.push_back(rng.NextFloat(-5.0f, 5.0f));
  }
  const float positive = rng.NextFloat(-5.0f, 5.0f);
  const PositiveRank rank = RankOfPositive(positive, negatives);
  // Reference: sort descending; num_above is where the positive's tie block
  // starts, num_tied is that block's length.
  std::vector<float> sorted = negatives;
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  int64_t reference = 0;
  while (reference < n && sorted[static_cast<size_t>(reference)] > positive) {
    ++reference;
  }
  int64_t reference_tied = 0;
  while (reference + reference_tied < n &&
         sorted[static_cast<size_t>(reference + reference_tied)] == positive) {
    ++reference_tied;
  }
  EXPECT_EQ(rank.num_above, reference);
  EXPECT_EQ(rank.num_tied, reference_tied);
  EXPECT_GE(rank.num_above, 0);
  EXPECT_LE(rank.WorstRank(), n);
  // Tie-aware metrics stay in [0, 1], are bounded by the best-case exact
  // rank, and HR > 0 iff NDCG > 0 (some tie placement lands inside k).
  for (int64_t k : {1, 5, 10}) {
    EXPECT_EQ(HitRatioAtK(rank, k) > 0, NdcgAtK(rank, k) > 0);
    EXPECT_LE(NdcgAtK(rank, k), NdcgAtK(rank.BestRank(), k));
    EXPECT_LE(NdcgAtK(rank, k), 1.0);
    EXPECT_GE(HitRatioAtK(rank, k), 0.0);
    EXPECT_LE(HitRatioAtK(rank, k), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingProperty,
                         ::testing::Range<uint64_t>(0, 20));

// -- Generator invariants over seeds and presets --------------------------------

struct GeneratorCase {
  uint64_t seed;
  JdPreset preset;
};

// Without this gtest prints the case as raw bytes, padding included, and
// the printed value becomes part of the test name CTest registers, so the
// names would change from build to build.
void PrintTo(const GeneratorCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_";
  for (const char* p = JdPresetName(c.preset); *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p))) *os << *p;
  }
}

class GeneratorProperty : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  const GeneratorCase param = GetParam();
  auto result = GenerateSyntheticDataset(MakeJdConfig(param.preset, 0.01),
                                         param.seed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.value();
  ASSERT_TRUE(d.Validate().ok());

  // Item-item edges are symmetric.
  std::set<std::pair<int64_t, int64_t>> edge_set;
  for (const Edge& e : d.item_item_edges) edge_set.insert({e.src, e.dst});
  for (const Edge& e : d.item_item_edges) {
    EXPECT_TRUE(edge_set.count({e.dst, e.src}))
        << e.src << "->" << e.dst << " missing reverse";
  }
  // Leave-one-out feasible for every user.
  std::vector<int64_t> per_user(static_cast<size_t>(d.num_users), 0);
  for (const Interaction& x : d.interactions) {
    per_user[static_cast<size_t>(x.user)]++;
  }
  for (int64_t c : per_user) EXPECT_GE(c, 3);
  // Every category has at least one item and one scene.
  std::vector<bool> category_has_item(static_cast<size_t>(d.num_categories));
  for (int64_t c : d.item_category) {
    category_has_item[static_cast<size_t>(c)] = true;
  }
  std::vector<bool> category_has_scene(static_cast<size_t>(d.num_categories));
  for (const Edge& e : d.category_scene_edges) {
    category_has_scene[static_cast<size_t>(e.src)] = true;
  }
  for (int64_t c = 0; c < d.num_categories; ++c) {
    EXPECT_TRUE(category_has_item[static_cast<size_t>(c)]) << "category " << c;
    EXPECT_TRUE(category_has_scene[static_cast<size_t>(c)]) << "category " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPresets, GeneratorProperty,
    ::testing::Values(GeneratorCase{1, JdPreset::kBabyToy},
                      GeneratorCase{2, JdPreset::kElectronics},
                      GeneratorCase{3, JdPreset::kFashion},
                      GeneratorCase{4, JdPreset::kFoodDrink},
                      GeneratorCase{99, JdPreset::kElectronics},
                      GeneratorCase{12345, JdPreset::kFashion}));

// -- Split invariants over seeds ---------------------------------------------------

class SplitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitProperty, PartitionIsExactAndDisjoint) {
  SyntheticConfig config;
  config.num_users = 25;
  config.num_items = 150;
  config.num_categories = 10;
  config.num_scenes = 6;
  config.sessions_per_user = 4;
  auto dataset = GenerateSyntheticDataset(config, GetParam());
  ASSERT_TRUE(dataset.ok());
  Rng rng(GetParam() * 31 + 7);
  auto split = MakeLeaveOneOutSplit(dataset.value(), 40, rng);
  ASSERT_TRUE(split.ok());

  // train + {validation, test} positives == all interactions, no overlap.
  std::set<std::pair<int64_t, int64_t>> all;
  for (const Interaction& x : dataset->interactions) {
    all.insert({x.user, x.item});
  }
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const Interaction& x : split->train) {
    EXPECT_TRUE(all.count({x.user, x.item}));
    EXPECT_TRUE(seen.insert({x.user, x.item}).second);
  }
  for (const auto& inst : split->validation) {
    EXPECT_TRUE(all.count({inst.user, inst.positive_item}));
    EXPECT_TRUE(seen.insert({inst.user, inst.positive_item}).second);
  }
  for (const auto& inst : split->test) {
    EXPECT_TRUE(all.count({inst.user, inst.positive_item}));
    EXPECT_TRUE(seen.insert({inst.user, inst.positive_item}).second);
  }
  EXPECT_EQ(seen.size(), all.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitProperty,
                         ::testing::Range<uint64_t>(0, 8));

// -- Optimizer property: RMSProp reduces a convex loss ------------------------------

// The optimizer's name stays in the parameter so each case names what it
// runs.
class OptimizerProperty
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(OptimizerProperty, ReducesConvexLoss) {
  const auto& [name, seed] = GetParam();
  Rng rng(seed);
  Tensor w = Tensor::RandomUniform(Shape({6}), -2, 2, rng, true);
  Tensor target = Tensor::RandomUniform(Shape({6}), -1, 1, rng);
  RmsPropOptimizer optimizer({w}, OptimizerOptions{.learning_rate = 0.02f});
  auto loss_value = [&]() {
    Tensor diff = Sub(w, target);
    return Sum(Mul(diff, diff));
  };
  const float before = loss_value().scalar();
  for (int i = 0; i < 100; ++i) {
    optimizer.ZeroGrad();
    Backward(loss_value());
    optimizer.Step();
  }
  const float after = loss_value().scalar();
  EXPECT_LT(after, before * 0.5f) << name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    All, OptimizerProperty,
    ::testing::Combine(::testing::Values("rmsprop"),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace scenerec
