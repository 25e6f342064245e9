#ifndef TOPL_CORE_TOPL_DETECTOR_H_
#define TOPL_CORE_TOPL_DETECTOR_H_

#include <span>
#include <vector>

#include "common/lease_pool.h"
#include "common/result.h"
#include "core/community_result.h"
#include "core/query.h"
#include "core/search_control.h"
#include "core/seed_community.h"
#include "graph/graph.h"
#include "index/precompute.h"
#include "index/tree_index.h"
#include "influence/propagation.h"

namespace topl {

/// \brief The post-extraction score test: a found seed community g is
/// skipped, before its MIA propagation, when some member's precomputed ball
/// bound is already below σ_L.
///
/// Let ecc(u) be the eccentricity of member u within the induced subgraph
/// G[g]. Distances in G[g] are at least the full-graph distances, so
/// g ⊆ hop(u, ecc(u)); σ is monotone in the seed set and θ_z ≤ θ, so
/// σ(g) ≤ σ_z(hop(u, ecc(u))) = ScoreBound(u, ecc(u), z). When that bound is
/// strictly below σ_L, σ(g) < σ_L and the collector would reject g under
/// either branch of the canonical order. A found community (a few vertices)
/// is far smaller than its center's r-ball, so this bound is much sharper
/// than the Lemma 4 test on hop(center, r) that admitted the candidate.
///
/// Cost: balls nest, so a member whose ScoreBound(u, 1, z) is not below the
/// floor is skipped without a BFS, and a BFS stops at the first level whose
/// bound reaches the floor or that lies beyond r_max. The scratch (the local
/// adjacency of G[g] and the BFS arrays) is reused, so a warm test
/// allocates nothing. One instance per thread.
class MemberBallBound {
 public:
  /// True when some u ∈ `members` (sorted ascending, as
  /// SeedCommunity::vertices) reaches every member within ecc(u) ≤ r_max
  /// hops in G[members] and pre.ScoreBound(u, max(ecc(u), 1), z) < floor.
  bool Below(const Graph& g, const PrecomputedData& pre,
             std::span<const VertexId> members, std::uint32_t z, double floor);

 private:
  /// Fills the local CSR of G[members] (indices into `members`).
  void BuildAdjacency(const Graph& g, std::span<const VertexId> members);
  /// BFS from local vertex `source`; true when it reaches every member and
  /// the bound at its eccentricity is below the floor.
  bool BoundBelow(const PrecomputedData& pre, VertexId u, std::uint32_t source,
                  std::uint32_t z, double floor);

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> adjacency_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> queue_;
};

/// \brief Online TopL-ICDE processing (Algorithm 3) as a staged
/// plan → score → merge pipeline.
///
///  - Plan: best-first traversal of the tree index with a max-heap keyed by
///    the nodes' influential-score upper bounds, applying the index-level
///    pruning rules (Lemmas 5–7) at non-leaf entries and the candidate-level
///    rules (Lemmas 1, 2, 4) at leaf vertices. The traversal is exposed as a
///    cursor that yields *waves* of surviving candidate centers.
///  - Score: each wave's candidates are refined — maximal seed community
///    extraction plus exact MIA propagation — either inline (sequential) or
///    fanned out in chunks over a ThreadPool (SearchControl::pool), with
///    share-nothing per-chunk scratch. Once σ_L is valid, a found community
///    that MemberBallBound places strictly below it skips propagation.
///  - Merge: refined communities fold into a bounded top-L collector ordered
///    by the canonical total order (σ desc, center asc), whose L-th entry
///    drives the score pruning / early-termination threshold of later waves.
///
/// Because candidates are pruned only when their upper bound is *strictly*
/// below the threshold and the collector's order is total, the final answer
/// is one specific community set regardless of wave sizes, chunk boundaries,
/// or merge order: the parallel path returns byte-identical results to the
/// sequential path (which in turn equals brute force). Parallelism changes
/// wall-clock, never answers.
///
/// SearchControl additionally provides deadlines, cooperative cancellation,
/// and progressive streaming of intermediate answers (anytime search); see
/// core/search_control.h.
///
/// The detector reuses extraction/propagation scratch across calls; use one
/// detector per thread, or serve through topl::Engine (engine/engine.h),
/// which leases one pooled detector per in-flight query. (Intra-query chunk
/// scratch is pooled separately, so one Search may use a ThreadPool even
/// though the detector itself is leased to a single query.) The referenced
/// graph/index must outlive it.
class TopLDetector {
 public:
  TopLDetector(const Graph& g, const PrecomputedData& pre, const TreeIndex& tree);

  /// Answers one query sequentially to completion. Fails with
  /// InvalidArgument when the query is malformed or asks for a radius beyond
  /// the index's r_max.
  Result<TopLResult> Search(const Query& query, const QueryOptions& options = {});

  /// Answers one query under runtime controls: intra-query parallelism,
  /// deadline/budget, cancellation, progressive streaming. A truncated run
  /// (deadline, cancel, callback stop) still succeeds, returning best-so-far
  /// communities with TopLResult::truncated set and the remaining
  /// score_upper_bound as the anytime gap.
  Result<TopLResult> Search(const Query& query, const QueryOptions& options,
                            const SearchControl& control);

  /// Per-worker refinement scratch created so far (== peak scoring-worker
  /// concurrency of any single parallel query); exposed for tests.
  std::size_t pooled_scratch() const { return scratch_pool_.size(); }

 private:
  const Graph* graph_;
  const PrecomputedData* pre_;
  const TreeIndex* tree_;
  // Extraction and member-ball scratch of one scoring worker.
  struct RefineScratch {
    explicit RefineScratch(const Graph& g) : extractor(g) {}
    SeedCommunityExtractor extractor;
    MemberBallBound ball_bound;
  };

  RefineScratch scratch_;  // sequential path
  PropagationEngine engine_;

  // Per-worker scratch for the parallel scoring stage, grown lazily to the
  // peak number of concurrent scoring workers and reused across waves and
  // queries: share-nothing extraction scratch here, the propagation side
  // from the influence layer's own pool (reentrant chunkable evaluation).
  LeasePool<RefineScratch> scratch_pool_;
  PropagationEnginePool engine_pool_;
};

}  // namespace topl

#endif  // TOPL_CORE_TOPL_DETECTOR_H_
