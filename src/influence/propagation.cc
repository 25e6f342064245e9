#include "influence/propagation.h"

#include <algorithm>

#include "common/check.h"

namespace topl {

PropagationEngine::PropagationEngine(const Graph& g)
    : graph_(&g), best_(g.NumVertices(), 0.0), pos_(g.NumVertices(), kUntouched) {}

inline void PropagationEngine::Offer(VertexId v, double prob, double theta) {
  if (prob < theta || prob == 0.0) return;
  const std::uint32_t slot = pos_[v];
  if (slot == kUntouched) {
    best_[v] = prob;
    heap_.push_back(v);
    SiftUp(static_cast<std::uint32_t>(heap_.size() - 1), v);
  } else if (slot != kSettled && prob > best_[v]) {
    best_[v] = prob;
    SiftUp(slot, v);
  }
}

template <typename ArcProb>
void PropagationEngine::SettleAll(const Graph& adjacency, double theta,
                                  ArcProb arc_prob, InfluencedCommunity* out) {
  while (!heap_.empty()) {
    const VertexId top = heap_.front();
    const VertexId last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(last);
    // Settle: no larger product can reach `top` any more (Dijkstra on
    // probabilities in (0, 1]).
    pos_[top] = kSettled;
    const double prob = best_[top];
    out->vertices.push_back(top);
    out->cpp.push_back(prob);
    out->score += prob;
    for (const Graph::Arc& arc : adjacency.Neighbors(top)) {
      Offer(arc.to, prob * arc_prob(top, arc), theta);
    }
  }
  // Only settled vertices were ever touched, so this restores a clean slate.
  for (VertexId v : out->vertices) pos_[v] = kUntouched;
  last_settled_ = out->vertices.size();
}

inline void PropagationEngine::SiftUp(std::uint32_t slot, VertexId v) {
  const double key = best_[v];
  while (slot > 0) {
    const std::uint32_t parent = (slot - 1) / 4;
    const VertexId above = heap_[parent];
    if (best_[above] >= key) break;
    heap_[slot] = above;
    pos_[above] = slot;
    slot = parent;
    ++last_sift_steps_;
  }
  heap_[slot] = v;
  pos_[v] = slot;
}

inline void PropagationEngine::SiftDown(VertexId v) {
  const double key = best_[v];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  std::uint32_t slot = 0;
  for (;;) {
    const std::uint32_t first = 4 * slot + 1;
    if (first >= size) break;
    const std::uint32_t end = std::min(first + 4, size);
    std::uint32_t child = first;
    double child_key = best_[heap_[first]];
    for (std::uint32_t c = first + 1; c < end; ++c) {
      const double k = best_[heap_[c]];
      if (k > child_key) {
        child = c;
        child_key = k;
      }
    }
    if (child_key <= key) break;
    const VertexId below = heap_[child];
    heap_[slot] = below;
    pos_[below] = slot;
    slot = child;
    ++last_sift_steps_;
  }
  heap_[slot] = v;
  pos_[v] = slot;
}

InfluencedCommunity PropagationEngine::Compute(std::span<const VertexId> seeds,
                                               double theta) {
  TOPL_DCHECK(theta >= 0.0 && theta < 1.0, "influence threshold must be in [0, 1)");
  InfluencedCommunity out;
  last_sift_steps_ = 0;
  for (VertexId s : seeds) {
    TOPL_DCHECK(s < graph_->NumVertices(), "seed out of range");
    Offer(s, 1.0, theta);
  }
  SettleAll(*graph_, theta,
            [](VertexId, const Graph::Arc& arc) {
              return static_cast<double>(arc.prob);
            },
            &out);
  return out;
}

InfluencedCommunity PropagationEngine::ComputeFromSource(VertexId source,
                                                         double theta) {
  const VertexId seeds[1] = {source};
  return Compute(seeds, theta);
}

InfluencedCommunity PropagationEngine::ComputeReverse(
    const Graph& g, std::span<const WeightedSeed> seeds, double theta,
    std::span<const float> prob_uv, std::span<const float> prob_vu) {
  TOPL_CHECK(g.NumVertices() == pos_.size(),
             "reverse propagation graph must match the engine's vertex count");
  TOPL_DCHECK(prob_uv.size() == g.NumEdges() && prob_vu.size() == g.NumEdges(),
              "edge probability tables must cover every edge");
  InfluencedCommunity out;
  last_sift_steps_ = 0;
  for (const WeightedSeed& s : seeds) {
    TOPL_DCHECK(s.vertex < g.NumVertices(), "seed out of range");
    Offer(s.vertex, s.prob, theta);
  }
  // Traversing x → y backwards crosses the forward arc y → x, whose
  // probability sits in the directional slot picked by the canonical (u < v)
  // endpoint order of the shared undirected edge.
  SettleAll(g, theta,
            [prob_uv, prob_vu](VertexId from, const Graph::Arc& arc) {
              return static_cast<double>(arc.to < from ? prob_uv[arc.edge]
                                                       : prob_vu[arc.edge]);
            },
            &out);
  return out;
}

}  // namespace topl
