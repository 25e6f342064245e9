#include "baselines/atindex.h"

#include <algorithm>

#include "common/rng.h"
#include "common/timer.h"
#include "core/seed_community.h"
#include "graph/local_subgraph.h"
#include "influence/propagation.h"
#include "truss/truss_decomposition.h"

namespace topl {

ATIndex ATIndex::Build(const Graph& g, ThreadPool* pool) {
  ATIndex index;
  index.graph_ = &g;
  index.edge_trussness_ = TrussDecomposition(g, pool);
  index.vertex_trussness_ = VertexTrussness(g, index.edge_trussness_);
  return index;
}

Result<TopLResult> ATIndex::Search(const Query& query) const {
  return Search(query, SearchOptions());
}

Result<TopLResult> ATIndex::Search(const Query& query,
                                   const SearchOptions& options) const {
  TOPL_RETURN_IF_ERROR(query.Validate());
  if (!(options.center_sample_rate > 0.0 && options.center_sample_rate <= 1.0)) {
    return Status::InvalidArgument("center_sample_rate must be in (0, 1]");
  }

  Timer timer;
  TopLResult result;
  QueryStats& stats = result.stats;

  const Graph& g = *graph_;
  SeedCommunityExtractor extractor(g);
  PropagationEngine engine(g);
  Rng rng(options.sample_seed);
  const bool sampling = options.center_sample_rate < 1.0;

  std::vector<CommunityResult> found;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    // Trussness filter: v cannot sit in a k-truss otherwise.
    if (vertex_trussness_[v] < query.k) {
      ++stats.pruned_support;
      continue;
    }
    // Keyword filter on the center.
    if (!HopExtractor::HasAnyKeyword(g, v, query.keywords)) {
      ++stats.pruned_keyword;
      continue;
    }
    if (sampling && rng.NextDouble() >= options.center_sample_rate) continue;

    ++stats.candidates_refined;
    CommunityResult candidate;
    const bool found_community = extractor.Extract(v, query, &candidate.community);
    stats.ego_rejected += extractor.last_ego_rejected();
    if (!found_community) continue;
    ++stats.communities_found;
    candidate.influence = engine.Compute(candidate.community.vertices, query.theta);
    found.push_back(std::move(candidate));
  }

  SortCommunityResults(&found);
  if (found.size() > query.top_l) found.resize(query.top_l);
  result.communities = std::move(found);
  stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace topl
