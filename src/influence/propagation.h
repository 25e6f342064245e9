#ifndef TOPL_INFLUENCE_PROPAGATION_H_
#define TOPL_INFLUENCE_PROPAGATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/lease_pool.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace topl {

/// \brief The influenced community gInf of a seed set plus its influential
/// score (Definitions 3 and Eq. (5)).
///
/// `vertices[i]` has community-to-user propagation probability `cpp[i]`;
/// seeds are included with cpp = 1 (Eq. (4)). `score` = Σ cpp[i].
struct InfluencedCommunity {
  std::vector<VertexId> vertices;
  std::vector<double> cpp;
  double score = 0.0;

  std::size_t size() const { return vertices.size(); }
};

/// \brief A propagation source with its own start probability (1.0 for a
/// community member; less when the source stands for a path prefix).
struct WeightedSeed {
  VertexId vertex;
  double prob;
};

/// \brief MIA-model propagation engine.
///
/// Under the maximum influence arborescence model, upp(u, v) is the largest
/// product of arc probabilities over any u→v path (Eqs. (1)–(3)), and
/// cpp(g, v) = max_{u∈g} upp(u, v). Both reduce to a single multi-source
/// max-product Dijkstra: probabilities lie in (0, 1], so path products only
/// shrink as paths grow and the greedy settle order is correct — this is the
/// paper's calculate_influence(g, θ) (§VI-B).
///
/// Settle-order invariant. `InfluencedCommunity::vertices` lists vertices in
/// the order they settle, so `cpp` is non-increasing along it, and `score`
/// is the left-to-right floating-point sum of `cpp` in that order. Vertices
/// with equal cpp may settle in any order, but they contribute equal
/// addends, so the cpp sequence — and with it the score bits and every
/// ScoresAtThresholds prefix sum — depends only on (graph, seeds, theta).
/// The vertex order within a tie is deterministic but not part of the
/// invariant: a consumer that sums other per-vertex terms in `vertices`
/// order (the DTopL diversity gain) may see its low bits follow it.
///
/// One kernel serves every max-product Dijkstra in the system: query
/// refinement, the offline Algorithm-2 rows, and (through ComputeReverse)
/// the incremental updater's reverse dirty-region search. It is an indexed
/// 4-ary max-heap of vertex ids keyed through the tentative-cpp array, with
/// a per-vertex heap slot for in-place increase-key, so the heap never holds
/// a stale entry. Every vertex the kernel touches is settled before the heap
/// empties, so resetting the scratch over the settled list leaves it clean
/// for the next call: 12 bytes per vertex of O(n) scratch and no allocation
/// beyond the result vectors once the heap has grown. One engine per thread
/// — the serving layer (topl::Engine) upholds this by never leasing a worker
/// context to more than one query at a time.
class PropagationEngine {
 public:
  explicit PropagationEngine(const Graph& g);

  /// Computes gInf and σ for seed set `seeds` (duplicates are ignored) with
  /// influence threshold theta ∈ [0, 1): every vertex v with cpp(g, v) ≥
  /// theta is reported. theta = 0 explores everything reachable.
  InfluencedCommunity Compute(std::span<const VertexId> seeds, double theta);

  /// Single-source user-to-user propagation probabilities (Eq. (3)):
  /// upp(source, v) for all v with upp ≥ theta. upp(source, source) = 1.
  InfluencedCommunity ComputeFromSource(VertexId source, double theta);

  /// Reverse propagation over `g`, which must have this engine's vertex
  /// count but may differ from its graph in edges (the updater runs it over
  /// both the pre- and the post-delta graph). Reports every y whose value
  /// max_s s.prob · maxpath(y → s.vertex) is ≥ theta, where a path's value
  /// is the product of its forward arc probabilities. Traversing x → y
  /// backwards crosses the forward arc y → x, read from the per-edge tables
  /// of CollectEdgeProbabilities: prob_uv[e] = p(min→max), prob_vu[e] =
  /// p(max→min). Seeds below theta or at 0 are dropped; a seed repeated
  /// keeps its largest prob.
  InfluencedCommunity ComputeReverse(const Graph& g,
                                     std::span<const WeightedSeed> seeds,
                                     double theta,
                                     std::span<const float> prob_uv,
                                     std::span<const float> prob_vu);

  /// Work counters of the most recent call: vertices settled, and heap
  /// entries moved by sift-up/sift-down (machine-independent cost).
  std::size_t last_settled() const { return last_settled_; }
  std::uint64_t last_sift_steps() const { return last_sift_steps_; }

 private:
  static constexpr std::uint32_t kUntouched = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSettled = 0xFFFFFFFEu;

  /// Raises v's tentative value to `prob` (inserting it if untouched) when
  /// that improves it; settled vertices and values below theta are ignored.
  void Offer(VertexId v, double prob, double theta);
  /// Settles every offered vertex in non-increasing order, relaxing the
  /// arcs of `adjacency` with `arc_prob(settled, arc)`, and resets the
  /// scratch over the settled list.
  template <typename ArcProb>
  void SettleAll(const Graph& adjacency, double theta, ArcProb arc_prob,
                 InfluencedCommunity* out);
  void SiftUp(std::uint32_t slot, VertexId v);
  void SiftDown(VertexId v);

  const Graph* graph_;
  std::vector<double> best_;        // tentative cpp; valid while v is queued
  std::vector<std::uint32_t> pos_;  // heap slot, kUntouched or kSettled
  std::vector<VertexId> heap_;
  std::size_t last_settled_ = 0;
  std::uint64_t last_sift_steps_ = 0;
};

/// \brief Lease pool of PropagationEngines: reentrant, chunkable influence
/// evaluation over one graph.
///
/// A PropagationEngine is deliberately single-threaded (O(n) heap scratch),
/// so work that scores candidate chunks concurrently — the detectors'
/// parallel refinement stage — leases one engine per in-flight scoring
/// worker. Engines are created lazily up to peak concurrency and
/// recycled across waves and queries (see common/lease_pool.h).
///
/// The computed scores depend only on (graph, seeds, theta) — never on which
/// pooled engine ran the propagation — so chunked evaluation is bit-identical
/// to sequential evaluation.
class PropagationEnginePool : public LeasePool<PropagationEngine> {
 public:
  explicit PropagationEnginePool(const Graph& g)
      : LeasePool<PropagationEngine>(
            [graph = &g] { return std::make_unique<PropagationEngine>(*graph); }) {}
};

}  // namespace topl

#endif  // TOPL_INFLUENCE_PROPAGATION_H_
