#include "models/scene_rec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/repr_cache.h"
#include "common/trace.h"
#include "models/neighbor_util.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace scenerec {

SceneRec::SceneRec(const UserItemGraph* user_item, const SceneGraph* scene,
                   const SceneRecConfig& config, Rng& rng)
    : user_item_(user_item),
      scene_(scene),
      config_(config),
      user_embedding_(user_item->num_users(), config.embedding_dim, rng),
      item_embedding_(user_item->num_items(), config.embedding_dim, rng),
      category_embedding_(scene != nullptr ? scene->num_categories() : 1,
                          config.embedding_dim, rng),
      scene_embedding_(scene != nullptr ? scene->num_scenes() : 1,
                       config.embedding_dim, rng),
      user_agg_(config.embedding_dim, config.embedding_dim, config.activation,
                rng),
      item_user_agg_(config.embedding_dim, config.embedding_dim,
                     config.activation, rng),
      category_fuse_(2 * config.embedding_dim, config.embedding_dim,
                     config.activation, rng),
      item_fuse_(2 * config.embedding_dim, config.embedding_dim,
                 config.activation, rng),
      item_fuse_single_(config.embedding_dim, config.embedding_dim,
                        config.activation, rng),
      item_mlp_({2 * config.embedding_dim, config.embedding_dim,
                 config.embedding_dim},
                config.activation, config.activation, rng),
      rating_mlp_({2 * config.embedding_dim, config.embedding_dim, 1},
                  config.activation, Activation::kNone, rng),
      sample_rng_(rng.Next64()) {
  SCENEREC_CHECK(user_item != nullptr);
  SCENEREC_CHECK(scene != nullptr || (!config.use_scene && !config.use_item_item))
      << "scene graph required unless both scene and item-item are disabled";
}

std::string SceneRec::name() const {
  if (!config_.use_item_item && config_.use_scene) return "SceneRec-noitem";
  if (!config_.use_scene && config_.use_item_item) return "SceneRec-nosce";
  if (!config_.use_attention) return "SceneRec-noatt";
  return "SceneRec";
}

Tensor SceneRec::SceneSum(int64_t category, StepCaches& caches) const {
  if (caches.scene_sum.empty()) {
    caches.scene_sum.resize(static_cast<size_t>(scene_->num_categories()));
  }
  Tensor& memo = caches.scene_sum[static_cast<size_t>(category)];
  if (memo.defined()) return memo;
  auto scenes = scene_->ScenesOfCategory(category);
  if (scenes.empty()) {
    memo = Tensor::Zeros(Shape({config_.embedding_dim}));
  } else {
    memo = SumRows(scene_embedding_.LookupMany(
        std::vector<int64_t>(scenes.begin(), scenes.end())));
  }
  return memo;
}

void SceneRec::ClearStepCaches() { step_caches_.Clear(); }

void SceneRec::OnEvalBegin() {
  ClearStepCaches();
  eval_user_cache_.clear();
  eval_item_repr_.clear();
  eval_item_proj_.clear();
  item_state_.clear();
  rating_w_user_.clear();
  rating_w_item_.clear();
}

Tensor SceneRec::CategoryFuseInput(int64_t category, StepCaches& caches,
                                   Rng* rng) {
  // Eq. (3): scene-specific representation.
  Tensor h_scene = SceneSum(category, caches);

  // Eqs. (4)-(6): category-specific representation via scene-based
  // attention over related categories.
  std::vector<int64_t> neighbors = CapNeighbors(
      scene_->CategoryNeighbors(category), config_.max_neighbors, rng);
  Tensor h_cat;
  if (neighbors.empty()) {
    h_cat = Tensor::Zeros(Shape({config_.embedding_dim}));
  } else {
    Tensor rows = category_embedding_.LookupMany(neighbors);
    if (config_.use_attention) {
      const Tensor& query = h_scene;
      std::vector<Tensor> logits;
      logits.reserve(neighbors.size());
      for (int64_t q : neighbors) {
        logits.push_back(CosineSimilarity(query, SceneSum(q, caches)));
      }
      Tensor alpha = Softmax(Stack(logits));
      h_cat = WeightedSumRows(rows, alpha);
    } else {
      h_cat = MeanRows(rows);  // uniform weights (noatt variant)
    }
  }

  return Concat({h_scene, h_cat});
}

Tensor SceneRec::CategoryRepr(int64_t category, StepCaches& caches,
                              Rng* rng) {
  if (caches.category_repr.empty()) {
    caches.category_repr.resize(static_cast<size_t>(scene_->num_categories()));
  }
  Tensor& memo = caches.category_repr[static_cast<size_t>(category)];
  if (memo.defined()) return memo;
  // Eq. (7): fuse scene-specific and category-specific parts.
  memo = category_fuse_.Forward(CategoryFuseInput(category, caches, rng));
  return memo;
}

const Linear& SceneRec::scene_fuse_layer() const {
  return (config_.use_scene && config_.use_item_item) ? item_fuse_
                                                      : item_fuse_single_;
}

Tensor SceneRec::SceneFuseInput(int64_t item, StepCaches& caches, Rng* rng) {
  // Eq. (8): the item's category representation.
  Tensor h_category;
  if (config_.use_scene) {
    h_category = CategoryRepr(scene_->CategoryOfItem(item), caches, rng);
  }

  // Eqs. (9)-(11): attentive aggregation over item neighbors, attention from
  // the scene sets of the two items' categories.
  Tensor h_item;
  if (config_.use_item_item) {
    std::vector<int64_t> neighbors =
        CapNeighbors(scene_->ItemNeighbors(item), config_.max_neighbors, rng);
    if (neighbors.empty()) {
      h_item = Tensor::Zeros(Shape({config_.embedding_dim}));
    } else {
      Tensor rows = item_embedding_.LookupMany(neighbors);
      if (config_.use_attention && config_.use_scene) {
        Tensor query = SceneSum(scene_->CategoryOfItem(item), caches);
        std::vector<Tensor> logits;
        logits.reserve(neighbors.size());
        for (int64_t q : neighbors) {
          logits.push_back(CosineSimilarity(
              query, SceneSum(scene_->CategoryOfItem(q), caches)));
        }
        Tensor beta = Softmax(Stack(logits));
        h_item = WeightedSumRows(rows, beta);
      } else {
        // noatt variant, or nosce (no scenes to attend with): uniform.
        h_item = MeanRows(rows);
      }
    }
  }

  // Eq. (12)'s input (or the single surviving view under ablations; the
  // nosce variant keeps only the item-item sub-network).
  if (config_.use_scene && config_.use_item_item) {
    return Concat({h_category, h_item});
  }
  return config_.use_scene ? h_category : h_item;
}

Tensor SceneRec::SceneSpaceItemRepr(int64_t item, StepCaches& caches,
                                    Rng* rng) {
  // Eq. (12) and its ablated forms.
  return scene_fuse_layer().Forward(SceneFuseInput(item, caches, rng));
}

Tensor SceneRec::UserAggSum(int64_t user, Rng* rng) {
  // Eq. (1)'s aggregation: sum of interacted item embeddings.
  std::vector<int64_t> items =
      CapNeighbors(user_item_->ItemsOfUser(user), config_.max_neighbors, rng);
  return items.empty() ? Tensor::Zeros(Shape({config_.embedding_dim}))
                       : SumRows(item_embedding_.LookupMany(items));
}

void SceneRec::AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                                   uint64_t version) {
  if (cache != nullptr) {
    SCENEREC_CHECK_EQ(cache->dim(), config_.embedding_dim);
    // The per-user memo vector and the cache must not fork representations:
    // drop the memos so every eval-mode user repr flows through the cache.
    eval_user_cache_.clear();
  }
  user_repr_cache_ = std::move(cache);
  user_repr_version_ = version;
}

Tensor SceneRec::UserRepr(int64_t user, Rng* rng) {
  const bool eval_mode = NoGradGuard::enabled();
  if (eval_mode && user_repr_cache_ != nullptr) {
    const int64_t d = config_.embedding_dim;
    std::vector<float> row(static_cast<size_t>(d));
    if (user_repr_cache_->Lookup(user, user_repr_version_, row)) {
      return Tensor::FromVector(Shape({d}), std::move(row));
    }
    // Miss: eq. (1) on demand — the identical code path the serial lazy
    // fill below takes, so the inserted row is bitwise equal to a
    // precomputed one (ForwardRows row r == Forward(row r), docs/kernels.md)
    // and cached scores never drift from full warm-up.
    SCENEREC_TRACE_SPAN_F("serve/repr_miss_fill", "serve", trace::Floor::kOp,
                          "user=%lld", static_cast<long long>(user));
    Tensor repr = user_agg_.Forward(UserAggSum(user, rng));
    user_repr_cache_->Insert(
        user, user_repr_version_,
        std::span<const float>(repr.value().data(), static_cast<size_t>(d)));
    return repr;
  }
  if (eval_mode) {
    if (eval_user_cache_.empty()) {
      eval_user_cache_.resize(static_cast<size_t>(user_item_->num_users()));
    }
    if (eval_user_cache_[static_cast<size_t>(user)].defined()) {
      return eval_user_cache_[static_cast<size_t>(user)];
    }
  }
  // Eq. (1).
  Tensor repr = user_agg_.Forward(UserAggSum(user, rng));
  if (eval_mode) eval_user_cache_[static_cast<size_t>(user)] = repr;
  return repr;
}

Tensor SceneRec::UserSpaceSum(int64_t item, Rng* rng) {
  // Eq. (2)'s aggregation: sum of engaged user embeddings.
  std::vector<int64_t> users =
      CapNeighbors(user_item_->UsersOfItem(item), config_.max_neighbors, rng);
  return users.empty() ? Tensor::Zeros(Shape({config_.embedding_dim}))
                       : SumRows(user_embedding_.LookupMany(users));
}

Tensor SceneRec::UserSpaceItemRepr(int64_t item, Rng* rng) {
  // Eq. (2).
  return item_user_agg_.Forward(UserSpaceSum(item, rng));
}

Tensor SceneRec::GeneralItemRepr(int64_t item, StepCaches& caches,
                                 Rng* rng) {
  // Eq. (13): MLP over the concatenated user-based and scene-based views.
  Tensor user_view = UserSpaceItemRepr(item, rng);
  Tensor scene_view = SceneSpaceItemRepr(item, caches, rng);
  return item_mlp_.Forward(Concat({user_view, scene_view}));
}

void SceneRec::EnsureEvalTables() {
  if (!item_state_.empty()) return;
  const int64_t d = config_.embedding_dim;
  const size_t cells = static_cast<size_t>(user_item_->num_items() * d);
  eval_item_repr_.resize(cells);
  eval_item_proj_.resize(cells);
  item_state_.assign(static_cast<size_t>(user_item_->num_items()), kItemCold);
  // W [d, 2d] of eq. (14)'s first layer: columns [0, d) act on m_u, [d, 2d)
  // on m_i.
  const float* w = rating_mlp_.layer(0).weight().value().data();
  rating_w_user_.resize(static_cast<size_t>(d * d));
  rating_w_item_.resize(static_cast<size_t>(d * d));
  for (int64_t r = 0; r < d; ++r) {
    std::copy(w + r * 2 * d, w + r * 2 * d + d,
              rating_w_user_.data() + r * d);
    std::copy(w + r * 2 * d + d, w + (r + 1) * 2 * d,
              rating_w_item_.data() + r * d);
  }
}

const float* SceneRec::EvalItemRepr(int64_t item) {
  EnsureEvalTables();
  const int64_t d = config_.embedding_dim;
  float* row = eval_item_repr_.data() + item * d;
  if (item_state_[static_cast<size_t>(item)] == kItemCold) {
    // GeneralItemReprRows row r is bitwise GeneralItemRepr, so a lazily
    // filled row equals the prepared one.
    const Tensor repr = GeneralItemRepr(item, step_caches_, nullptr);
    std::copy(repr.value().data(), repr.value().data() + d, row);
    item_state_[static_cast<size_t>(item)] = kItemRepr;
  }
  return row;
}

const float* SceneRec::EvalItemProjection(int64_t item) {
  const int64_t d = config_.embedding_dim;
  float* p = eval_item_proj_.data() + item * d;
  if (item_state_[static_cast<size_t>(item)] != kItemProjected) {
    const float* m_i = EvalItemRepr(item);
    kernels::Gemv(rating_w_item_.data(), d, d, m_i, p);
    const float* b = rating_mlp_.layer(0).bias().value().data();
    for (int64_t j = 0; j < d; ++j) p[j] += b[j];
    item_state_[static_cast<size_t>(item)] = kItemProjected;
  }
  return p;
}

Tensor SceneRec::ItemRowsFromParts(const std::vector<Tensor>& user_space_sums,
                                   const std::vector<Tensor>& scene_inputs) {
  // Batched eq. (13): every per-item Linear/MLP runs once over stacked rows.
  Tensor user_view = item_user_agg_.ForwardRows(StackRows(user_space_sums));
  Tensor scene_view = scene_fuse_layer().ForwardRows(StackRows(scene_inputs));
  return item_mlp_.ForwardRows(ConcatCols(user_view, scene_view));
}

Tensor SceneRec::GeneralItemReprRows(std::span<const int64_t> items,
                                     StepCaches& caches, Rng* rng) {
  SCENEREC_CHECK(!items.empty());
  std::vector<Tensor> user_space_sums;
  std::vector<Tensor> scene_inputs;
  user_space_sums.reserve(items.size());
  scene_inputs.reserve(items.size());
  for (int64_t item : items) {
    user_space_sums.push_back(UserSpaceSum(item, rng));
    scene_inputs.push_back(SceneFuseInput(item, caches, rng));
  }
  return ItemRowsFromParts(user_space_sums, scene_inputs);
}

Tensor SceneRec::Rating(const Tensor& user_repr, const Tensor& item_repr) {
  // Eq. (14).
  return Reshape(rating_mlp_.Forward(Concat({user_repr, item_repr})), Shape());
}

Tensor SceneRec::ScoreForTraining(int64_t user, int64_t item) {
  if (NoGradGuard::enabled()) {
    // Eval: the concat form over the same memoized reprs the factorized
    // head reads.
    const float* row = EvalItemRepr(item);
    const int64_t d = config_.embedding_dim;
    return Rating(UserRepr(user, nullptr),
                  Tensor::FromVector(Shape({d}),
                                     std::vector<float>(row, row + d)));
  }
  ClearStepCaches();  // fresh parameters each step
  return Rating(UserRepr(user, &sample_rng_),
                GeneralItemRepr(item, step_caches_, &sample_rng_));
}

Tensor SceneRec::BatchLoss(std::span<const BprTriple> batch) {
  SCENEREC_CHECK(!batch.empty());
  ClearStepCaches();
  return ShardLoss(batch, step_caches_, sample_rng_);
}

void SceneRec::PrepareShards(int64_t num_shards) {
  SCENEREC_CHECK_GE(num_shards, 1);
  shard_caches_.resize(static_cast<size_t>(num_shards));
}

Tensor SceneRec::BatchLossShard(std::span<const BprTriple> shard,
                                int64_t shard_index, Rng& rng) {
  SCENEREC_CHECK_GE(shard_index, 0);
  SCENEREC_CHECK_LT(shard_index, static_cast<int64_t>(shard_caches_.size()))
      << "PrepareShards must size the cache table before the shard loop";
  StepCaches& caches = shard_caches_[static_cast<size_t>(shard_index)];
  caches.Clear();  // fresh parameters each step
  return ShardLoss(shard, caches, rng);
}

Tensor SceneRec::ShardLoss(std::span<const BprTriple> triples,
                           StepCaches& caches, Rng& rng) {
  if (triples.empty()) return Tensor();
  const int64_t n = static_cast<int64_t>(triples.size());
  // Collect the pre-linear aggregation inputs in the same per-triple order
  // as the per-entity loop used to (user, then positive item, then negative
  // item) so the neighbor-sampling RNG stream is unchanged; the Linear/MLP
  // layers then each run once over the stacked rows.
  std::vector<Tensor> user_sums;       // one row per triple
  std::vector<Tensor> item_user_sums;  // pos0, neg0, pos1, neg1, ...
  std::vector<Tensor> scene_inputs;    // same interleaved order
  user_sums.reserve(triples.size());
  item_user_sums.reserve(2 * triples.size());
  scene_inputs.reserve(2 * triples.size());
  for (const BprTriple& triple : triples) {
    user_sums.push_back(UserAggSum(triple.user, &rng));
    for (int64_t item : {triple.positive_item, triple.negative_item}) {
      item_user_sums.push_back(UserSpaceSum(item, &rng));
      scene_inputs.push_back(SceneFuseInput(item, caches, &rng));
    }
  }
  Tensor user_rows = user_agg_.ForwardRows(StackRows(user_sums));  // [n, d]
  Tensor item_rows = ItemRowsFromParts(item_user_sums, scene_inputs);  // [2n,d]
  // Duplicate each user row next to its positive and negative item rows and
  // rate all 2n pairs in one batched eq. (14) forward.
  std::vector<int64_t> user_dup(static_cast<size_t>(2 * n));
  std::vector<int64_t> pos_idx(static_cast<size_t>(n));
  std::vector<int64_t> neg_idx(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    user_dup[static_cast<size_t>(2 * t)] = t;
    user_dup[static_cast<size_t>(2 * t + 1)] = t;
    pos_idx[static_cast<size_t>(t)] = 2 * t;
    neg_idx[static_cast<size_t>(t)] = 2 * t + 1;
  }
  Tensor scores = rating_mlp_.ForwardRows(
      ConcatCols(GatherRows(user_rows, user_dup), item_rows));  // [2n, 1]
  // Eq. (15): softplus(neg - pos) summed over pairs, in triple order (same
  // accumulation order as the former per-pair Add chain).
  return Sum(Softplus(
      Sub(GatherRows(scores, neg_idx), GatherRows(scores, pos_idx))));
}

bool SceneRec::PrepareParallelScoring(ThreadPool& pool) {
  // Fill every eval memo in dependency order; within a stage each index
  // writes only its own (pre-sized) cache slot, so stages parallelize over
  // disjoint memory. NoGradGuard is thread-local and therefore instantiated
  // inside each worker body.
  if (scene_ != nullptr) {
    const int64_t num_categories = scene_->num_categories();
    if (step_caches_.scene_sum.empty()) {
      step_caches_.scene_sum.resize(static_cast<size_t>(num_categories));
    }
    pool.ParallelFor(num_categories, /*grain=*/16,
                     [this](int64_t begin, int64_t end) {
                       NoGradGuard no_grad;
                       for (int64_t c = begin; c < end; ++c) {
                         SceneSum(c, step_caches_);
                       }
                     });
    if (config_.use_scene) {
      if (step_caches_.category_repr.empty()) {
        step_caches_.category_repr.resize(static_cast<size_t>(num_categories));
      }
      // Each chunk builds its eq. (7) inputs and runs category_fuse_ once as
      // a row-batched GEMM; Row(rows, r) is bitwise equal to the lazy
      // single-category forward, so serial evaluation stays bitwise
      // identical.
      pool.ParallelFor(
          num_categories, /*grain=*/16, [this](int64_t begin, int64_t end) {
            NoGradGuard no_grad;
            std::vector<Tensor> inputs;
            inputs.reserve(static_cast<size_t>(end - begin));
            for (int64_t c = begin; c < end; ++c) {
              inputs.push_back(CategoryFuseInput(c, step_caches_, nullptr));
            }
            Tensor rows = category_fuse_.ForwardRows(StackRows(inputs));
            for (int64_t c = begin; c < end; ++c) {
              step_caches_.category_repr[static_cast<size_t>(c)] =
                  Row(rows, c - begin);
            }
          });
    }
  }
  // Items: eq. (13) rows into M, then P = W_i M + b for the same block with
  // one GemvMulti — per (item, output) bitwise the Gemv a lazy fill runs.
  // A pool chunk can be the whole catalog (a one-thread pool runs inline),
  // so chunks are walked in blocks: the eq. (13) intermediates then stay
  // O(block) instead of O(catalog), which would otherwise be tens of MiB of
  // heap retained after every publish.
  EnsureEvalTables();
  const int64_t num_items = user_item_->num_items();
  pool.ParallelFor(
      num_items, /*grain=*/32, [this](int64_t begin, int64_t end) {
        NoGradGuard no_grad;
        constexpr int64_t kBlock = 256;
        const int64_t d = config_.embedding_dim;
        const float* b = rating_mlp_.layer(0).bias().value().data();
        std::vector<int64_t> items;
        for (int64_t lo = begin; lo < end; lo += kBlock) {
          const int64_t hi = std::min(lo + kBlock, end);
          items.resize(static_cast<size_t>(hi - lo));
          for (int64_t i = lo; i < hi; ++i) {
            items[static_cast<size_t>(i - lo)] = i;
          }
          Tensor rows = GeneralItemReprRows(items, step_caches_, nullptr);
          const float* src = rows.value().data();
          float* m = eval_item_repr_.data() + lo * d;
          float* p = eval_item_proj_.data() + lo * d;
          std::copy(src, src + (hi - lo) * d, m);
          kernels::GemvMulti(rating_w_item_.data(), d, d, m, hi - lo, p);
          for (int64_t i = lo; i < hi; ++i) {
            for (int64_t j = 0; j < d; ++j) p[(i - lo) * d + j] += b[j];
            item_state_[static_cast<size_t>(i)] = kItemProjected;
          }
        }
      });
  // With a demand-paged cache attached the O(users) sweep is skipped
  // entirely — hot swap warm-up is O(items) and user reprs materialize on
  // first touch (docs/serving.md#warmup). Without one, precompute every
  // user so concurrent Score() calls are pure reads.
  if (user_repr_cache_ == nullptr) {
    const int64_t num_users = user_item_->num_users();
    if (eval_user_cache_.empty()) {
      eval_user_cache_.resize(static_cast<size_t>(num_users));
    }
    pool.ParallelFor(
        num_users, /*grain=*/32, [this](int64_t begin, int64_t end) {
          NoGradGuard no_grad;
          std::vector<Tensor> sums;
          sums.reserve(static_cast<size_t>(end - begin));
          for (int64_t u = begin; u < end; ++u) {
            sums.push_back(UserAggSum(u, nullptr));
          }
          Tensor rows = user_agg_.ForwardRows(StackRows(sums));
          for (int64_t u = begin; u < end; ++u) {
            eval_user_cache_[static_cast<size_t>(u)] = Row(rows, u - begin);
          }
        });
  }
  return true;
}

float SceneRec::Score(int64_t user, int64_t item) {
  float out = 0.0f;
  ScoreBlock(user, std::span<const int64_t>(&item, 1),
             std::span<float>(&out, 1));
  return out;
}

void SceneRec::ScoreBlock(int64_t user, std::span<const int64_t> items,
                          std::span<float> out) {
  SCENEREC_CHECK_EQ(items.size(), out.size());
  if (items.empty()) return;
  NoGradGuard no_grad;
  // Every read below is of a memo PrepareParallelScoring filled (pure
  // reads, safe concurrently) or one this serial call fills on first use.
  EnsureEvalTables();
  const int64_t d = config_.embedding_dim;
  thread_local std::vector<float> q;
  q.resize(static_cast<size_t>(d));
  const Tensor user_repr = UserRepr(user, nullptr);
  kernels::Gemv(rating_w_user_.data(), d, d, user_repr.value().data(),
                q.data());
  for (const int64_t item : items) EvalItemProjection(item);
  const Linear& hidden = rating_mlp_.layer(0);
  const Linear& output = rating_mlp_.layer(1);
  kernels::AddActDotRows(q.data(), eval_item_proj_.data(), items.data(),
                         static_cast<int64_t>(items.size()), d,
                         output.weight().value().data(),
                         output.bias().value()[0],
                         ToFusedAct(hidden.activation()), kernels::kLeakySlope,
                         out.data());
}

std::span<const float> SceneRec::RatingHeadItemRow(int64_t item) {
  NoGradGuard no_grad;
  EnsureEvalTables();
  return std::span<const float>(EvalItemProjection(item),
                                static_cast<size_t>(config_.embedding_dim));
}

RetrievalEmbeddings SceneRec::ExportItemEmbeddings() {
  NoGradGuard no_grad;
  RetrievalEmbeddings out;
  out.num_items = user_item_->num_items();
  out.dim = config_.embedding_dim;
  out.fidelity = RetrievalFidelity::kProxy;
  out.owned_items.resize(static_cast<size_t>(out.num_items * out.dim));
  // The M rows Score()/ScoreBlock read, so exporting doubles as a warm-up of
  // M and never forks representations. P stays cold: the index needs none.
  for (int64_t i = 0; i < out.num_items; ++i) {
    const float* src = EvalItemRepr(i);
    std::copy(src, src + out.dim, out.owned_items.data() + i * out.dim);
  }
  out.items = out.owned_items.data();
  return out;
}

void SceneRec::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  NoGradGuard no_grad;
  SCENEREC_CHECK_EQ(static_cast<int64_t>(out.size()), config_.embedding_dim);
  const Tensor repr = UserRepr(user, nullptr);
  const float* src = repr.value().data();
  std::copy(src, src + config_.embedding_dim, out.begin());
}

float SceneRec::AverageAttentionScore(int64_t user, int64_t item) const {
  if (scene_ == nullptr || !config_.use_scene) return 0.0f;
  auto history = user_item_->ItemsOfUser(user);
  if (history.empty()) return 0.0f;
  NoGradGuard no_grad;
  StepCaches local_caches;  // keeps this const path off the shared memos
  Tensor candidate = SceneSum(scene_->CategoryOfItem(item), local_caches);
  float total = 0.0f;
  int64_t count = 0;
  for (int64_t j : history) {
    if (j == item) continue;
    Tensor other = SceneSum(scene_->CategoryOfItem(j), local_caches);
    total += CosineSimilarity(candidate, other).scalar();
    ++count;
  }
  return count == 0 ? 0.0f : total / static_cast<float>(count);
}

void SceneRec::CollectParameters(std::vector<Tensor>* out) const {
  user_embedding_.CollectParameters(out);
  item_embedding_.CollectParameters(out);
  user_agg_.CollectParameters(out);
  item_user_agg_.CollectParameters(out);
  item_mlp_.CollectParameters(out);
  rating_mlp_.CollectParameters(out);
  if (config_.use_scene) {
    category_embedding_.CollectParameters(out);
    scene_embedding_.CollectParameters(out);
    category_fuse_.CollectParameters(out);
  }
  if (config_.use_scene && config_.use_item_item) {
    out->push_back(item_fuse_.weight());
    out->push_back(item_fuse_.bias());
  } else {
    item_fuse_single_.CollectParameters(out);
  }
  if (!config_.use_scene && config_.use_item_item) {
    // nosce still attends over item neighbors using item embeddings only —
    // no extra parameters beyond the shared tables.
  }
}

}  // namespace scenerec
