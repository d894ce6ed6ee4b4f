#ifndef SCENEREC_MODELS_SCENE_REC_H_
#define SCENEREC_MODELS_SCENE_REC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/recommender.h"
#include "nn/activation.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace scenerec {

/// Hyper-parameters and ablation switches for SceneRec. The three `use_*`
/// flags produce the paper's model variants:
///   use_item_item=false  -> SceneRec-noitem  (no item layer in H)
///   use_scene=false      -> SceneRec-nosce   (no category/scene layers)
///   use_attention=false  -> SceneRec-noatt   (uniform neighbor weights)
struct SceneRecConfig {
  int64_t embedding_dim = 64;

  /// Aggregation cap per neighbor set. The paper sums all 1-hop neighbors;
  /// we cap for bounded per-example cost (sampled during training,
  /// deterministic strided subset during evaluation). See DESIGN.md.
  int64_t max_neighbors = 20;

  bool use_item_item = true;
  bool use_scene = true;
  bool use_attention = true;

  /// The sigma nonlinearity of equations (1), (2), (7), (12).
  Activation activation = Activation::kLeakyRelu;
};

/// SceneRec (Section 4): scene-based graph neural collaborative filtering.
///
/// User modeling (eq. 1) and user-based item modeling (eq. 2) aggregate
/// bipartite neighbors. Scene-based item modeling propagates information
/// down the scene->category->item hierarchy: scene-specific category
/// representation (eq. 3), attentive category-category aggregation with
/// scene-based cosine attention (eqs. 4-6), category fusion (eq. 7), the
/// item's category representation (eq. 8), attentive item-item aggregation
/// (eqs. 9-11) and fusion (eq. 12). The two item views are merged by an MLP
/// (eq. 13) and rating prediction is an MLP over the user and item
/// representations (eq. 14), trained with BPR (eq. 15).
class SceneRec : public Recommender {
 public:
  /// `user_item` supplies UI/IU neighborhoods, `scene` the hierarchy; both
  /// must outlive the model. `scene` may be null only if
  /// config.use_scene == false && config.use_item_item == false.
  SceneRec(const UserItemGraph* user_item, const SceneGraph* scene,
           const SceneRecConfig& config, Rng& rng);

  std::string name() const override;
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;

  /// Keeps every eval memo (M, P, user reprs, eval scene sums and category
  /// reprs) while ParameterVersion() still equals the version they were
  /// filled under, and clears them all otherwise. Re-publishing or
  /// re-evaluating a model whose parameters were not written therefore
  /// costs nothing and writes nothing.
  void OnEvalBegin() override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  // -- Sharded training / parallel evaluation -----------------------------
  // The step memos (scene sums, category representations) become per-shard
  // StepCaches so concurrent shards never share an autograd intermediate;
  // see docs/parallelism.md for the cache thread-safety rules.
  bool SupportsShardedLoss() const override { return true; }
  void PrepareShards(int64_t num_shards) override;
  Tensor BatchLossShard(std::span<const BprTriple> shard, int64_t shard_index,
                        Rng& rng) override;

  /// Precomputes every eval memo: the item side (WarmItemSide), then the
  /// user reprs, each stage parallel over disjoint cache slots, then returns
  /// true: Score() becomes a pure read plus the factorized rating head.
  /// Work already complete is skipped, so on a model whose memos are all
  /// current (an export or an earlier prepare filled them) it computes and
  /// writes nothing.
  bool PrepareParallelScoring(ThreadPool& pool) override;

  // -- Eval-mode scoring: the factorized eq. (14) head --------------------
  // The rating MLP's first layer is linear, so W [m_u || m_i] + b splits
  // exactly into q = W_u m_u plus P[i] = W_i m_i + b. P is a contiguous
  // [items, d] table filled with the item memo M (PrepareParallelScoring:
  // one GemvMulti per block of items; serial path: per item on first use
  // with the bitwise-equal Gemv), q is computed once per ScoreBlock call,
  // and each candidate row costs one kernels::AddActDotRows row,
  // w2 . act(q + P[i]) + b2 — O(d) work instead of the 2d^2 flops of a
  // first-layer GEMV, and no [n, 2d] gather. Score is a one-row ScoreBlock,
  // and the base ScoreRows calls ScoreBlock once per run of equal user, so
  // Score, ScoreBlock and ScoreRows all end in that one kernel and agree
  // bitwise with each other and with any re-chunking of rows; only the
  // float grouping relative to the concat form that ScoreForTraining keeps
  // for autograd differs (tests/scoring_test.cc).
  float Score(int64_t user, int64_t item) override;
  bool SupportsBlockScoring() const override { return true; }
  void ScoreBlock(int64_t user, std::span<const int64_t> items,
                  std::span<float> out) override;

  /// Row `item` of P, filled on first use exactly as Score fills it — what
  /// the prepared == lazy tests compare.
  std::span<const float> RatingHeadItemRow(int64_t item);

  // -- Demand-paged user representations -----------------------------------
  // With a cache attached, eval-mode UserRepr bypasses the per-user memo
  // vector entirely: hits copy the cached row, misses compute eq. (1) under
  // NoGradGuard (user_agg_.Forward over UserAggSum — the identical code
  // path the serial lazy fill takes, so the row is bitwise equal to the
  // ForwardRows-precomputed one; docs/kernels.md) and insert it. Prepare-
  // ParallelScoring then skips the O(users) sweep: hot swap warm-up becomes
  // O(items) and user-side memory O(cache capacity). The cache's sharded
  // locks plus the pure-read item/scene memos keep concurrent
  // ScoreBlock calls safe after PrepareParallelScoring, exactly as in
  // full warm-up mode.
  bool SupportsUserReprCache() const override { return true; }
  int64_t UserReprDim() const override { return config_.embedding_dim; }
  void AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                           uint64_t version) override;

  /// Exports the memoized eval representations (eqs. 1 and 13). The item
  /// export is the item warm-up: WarmItemSide on the default pool fills M
  /// and P, and the export copies M out, so a Publish that follows finds
  /// the item side done. The true score is the rating MLP over
  /// [user_repr, item_repr] — not an inner product — so the export is
  /// kProxy: index order only picks candidates and two-stage serving always
  /// reranks with exact ScoreBlock.
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return config_.embedding_dim; }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

  const SceneRecConfig& config() const { return config_; }

  /// Average scene-based attention score between `item` and the items the
  /// user interacted with (the quantity displayed in Figure 3's case
  /// study): mean over interacted items j of the raw attention logit
  /// beta*(item, j) = cosine(scene-sum(item), scene-sum(j)). Computed
  /// without autograd. Returns 0 when the model has no scene information or
  /// the user has no history.
  float AverageAttentionScore(int64_t user, int64_t item) const;

 private:
  /// Step-scoped memo tables. One instance per execution lane: the members
  /// `step_caches_` for the serial path (and eval sweeps), one entry of
  /// `shard_caches_` per shard of a parallel step, or a stack local (see
  /// AverageAttentionScore). Memoized tensors are autograd nodes, so a
  /// StepCaches must never be shared by two concurrent Backward graphs.
  struct StepCaches {
    std::vector<Tensor> scene_sum;
    std::vector<Tensor> category_repr;

    void Clear() {
      scene_sum.clear();
      category_repr.clear();
    }
  };

  /// Sum of scene embeddings of CS(c) — eq. (3); zeros if c has no scenes.
  /// Memoized per step (the result is identical for every use of the same
  /// category within one forward pass, and reusing the autograd node simply
  /// accumulates gradients along all uses).
  Tensor SceneSum(int64_t category, StepCaches& caches) const;

  /// Drops the per-step memos (scene sums, category representations). Called
  /// at the start of every training step; parameters change between steps so
  /// memos would be stale. The step memos double as the eval scene-sum and
  /// category memos, so the eval stamp is dropped too.
  void ClearStepCaches();

  /// Stamps the eval memos with ParameterVersion() unless they already
  /// carry a stamp: called before the first eval memo after a clear is
  /// filled, on the calling thread.
  void StampEvalMemos();

  /// Eqs. (2)-(13) for the whole catalog plus P: the eval scene sums, the
  /// eq. (7) category reprs, then M and P in blocks of 256 items, each
  /// stage parallel on `pool`. A stage whose memos are all filled, or a
  /// block whose items are all projected, is skipped. Shared by
  /// ExportItemEmbeddings and PrepareParallelScoring.
  void WarmItemSide(ThreadPool& pool);

  /// The input of eq. (7)'s fusion layer: h_scene || h_cat (eqs. 3-6).
  /// Split out of CategoryRepr so batched callers can stack these rows and
  /// run category_fuse_ once per batch.
  Tensor CategoryFuseInput(int64_t category, StepCaches& caches, Rng* rng);

  /// m_{c_p} — eqs. (3)-(7).
  Tensor CategoryRepr(int64_t category, StepCaches& caches, Rng* rng);

  /// The input row of eq. (12)'s fusion layer (h_category || h_item, or the
  /// single surviving part under ablations). The fuse layer itself is
  /// `scene_fuse_layer()`.
  Tensor SceneFuseInput(int64_t item, StepCaches& caches, Rng* rng);

  /// The Linear applied to SceneFuseInput: item_fuse_ when both views are
  /// enabled, item_fuse_single_ under ablations.
  const Linear& scene_fuse_layer() const;

  /// m^S_{i_p} — eqs. (8)-(12), honoring ablation switches.
  Tensor SceneSpaceItemRepr(int64_t item, StepCaches& caches, Rng* rng);

  /// Aggregated item-embedding sum feeding eq. (1) (before W_u).
  Tensor UserAggSum(int64_t user, Rng* rng);

  /// m_{u_p} — eq. (1).
  Tensor UserRepr(int64_t user, Rng* rng);

  /// Aggregated user-embedding sum feeding eq. (2) (before W_iu).
  Tensor UserSpaceSum(int64_t item, Rng* rng);

  /// m^U_{i_p} — eq. (2).
  Tensor UserSpaceItemRepr(int64_t item, Rng* rng);

  /// m_{i_p} — eq. (13), computed afresh (the eval memo is EvalItemRepr).
  Tensor GeneralItemRepr(int64_t item, StepCaches& caches, Rng* rng);

  /// Sizes the eval item tables (M, P, their fill states) and splits the
  /// rating MLP's first weight [d, 2d] into contiguous [d, d] halves W_u
  /// and W_i, once per eval sweep. Never called concurrently with a cold
  /// fill.
  void EnsureEvalTables();

  /// Eval-mode row of M (eq. 13), computed on first use.
  const float* EvalItemRepr(int64_t item);

  /// Eval-mode row of P, computed on first use from the M row with
  /// kernels::Gemv — bitwise the row PrepareParallelScoring's GemvMulti
  /// writes. Requires EnsureEvalTables.
  const float* EvalItemProjection(int64_t item);

  /// Batched eq. (13): one row per item of `items`, computed with row-
  /// batched GEMMs. Row r is bitwise equal to GeneralItemRepr(items[r])
  /// because every batched kernel matches its single-row path bitwise.
  Tensor GeneralItemReprRows(std::span<const int64_t> items,
                             StepCaches& caches, Rng* rng);

  /// Assembles eq. (13) rows from pre-collected aggregation inputs: row r is
  /// item_mlp_(item_user_agg_(user_space_sums[r]) ||
  /// scene_fuse_layer()(scene_inputs[r])). Shared by GeneralItemReprRows and
  /// the batched ShardLoss.
  Tensor ItemRowsFromParts(const std::vector<Tensor>& user_space_sums,
                           const std::vector<Tensor>& scene_inputs);

  /// Shared body of BatchLoss and BatchLossShard: summed BPR loss of
  /// `triples` with memos in `caches` and sampling from `rng`.
  Tensor ShardLoss(std::span<const BprTriple> triples, StepCaches& caches,
                   Rng& rng);

  /// r'_pq — eq. (14) in the concat form (training, and the reference the
  /// factorized eval head is tested against).
  Tensor Rating(const Tensor& user_repr, const Tensor& item_repr);

  const UserItemGraph* user_item_;
  const SceneGraph* scene_;
  SceneRecConfig config_;

  Embedding user_embedding_;
  Embedding item_embedding_;
  Embedding category_embedding_;
  Embedding scene_embedding_;

  Linear user_agg_;        // W_u, b_u   (eq. 1)
  Linear item_user_agg_;   // W_iu, b_iu (eq. 2)
  Linear category_fuse_;   // W_ic, b_ic (eq. 7), [2d -> d]
  Linear item_fuse_;       // W_ii, b_ii (eq. 12), [2d -> d]
  Linear item_fuse_single_;  // ablations: [d -> d] when one input is removed
  Mlp item_mlp_;           // F, W_i (eq. 13)
  Mlp rating_mlp_;         // F, W_r (eq. 14)

  Rng sample_rng_;

  // Step-scoped memos of the serial path (valid within one forward pass /
  // one eval sweep) and the per-shard tables of the parallel path.
  mutable StepCaches step_caches_;
  std::vector<StepCaches> shard_caches_;
  // Eval-sweep-scoped memos, only consulted under NoGradGuard: evaluation
  // scores num_users x 101 pairs, and every representation is deterministic
  // between parameter updates. During parallel evaluation they are filled
  // up-front by PrepareParallelScoring and then only read.
  std::vector<Tensor> eval_user_cache_;
  // M [items, d] (eq. 13) and P [items, d] (W_i M + b of eq. 14), row-major
  // and contiguous; item_state_ says how far each item's rows are filled.
  enum ItemState : uint8_t { kItemCold = 0, kItemRepr = 1, kItemProjected = 2 };
  std::vector<float> eval_item_repr_;
  std::vector<float> eval_item_proj_;
  std::vector<uint8_t> item_state_;
  // W_u and W_i: the [d, d] column halves of the rating MLP's first weight.
  std::vector<float> rating_w_user_;
  std::vector<float> rating_w_item_;

  // ParameterVersion() when the first eval memo after the last clear was
  // filled; empty while no memo carries a stamp. Training steps drop it
  // (ClearStepCaches), since they refill the shared step memos.
  std::optional<uint64_t> eval_version_;

  // Demand-paged user-representation store (see AttachUserReprCache).
  // While attached, eval_user_cache_ stays empty and every eval-mode
  // UserRepr goes through the cache under `user_repr_version_`'s tag.
  std::shared_ptr<ReprCache> user_repr_cache_;
  uint64_t user_repr_version_ = 0;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_SCENE_REC_H_
