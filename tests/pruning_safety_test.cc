#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/brute_force.h"
#include "core/seed_community.h"
#include "core/topl_detector.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::BuildIndexFor;
using testing::BuiltIndex;
using testing::Scores;

// Safety of each pruning rule (Lemmas 1/2/4 at candidate level, 5/6/7 at
// index level): enabling any subset of rules must never change the returned
// score multiset — pruning removes only false alarms.
class PruningSafetyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static QueryOptions Combo(bool kw, bool sup, bool score) {
    QueryOptions o;
    o.use_keyword_pruning = kw;
    o.use_support_pruning = sup;
    o.use_score_pruning = score;
    return o;
  }
};

TEST_P(PruningSafetyTest, AllCombosMatchBruteForce) {
  SmallWorldOptions gen;
  gen.num_vertices = 160;
  gen.seed = GetParam();
  gen.keywords.domain_size = 12;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const BuiltIndex built = BuildIndexFor(*g);
  TopLDetector detector(*g, built.pre(), built.tree);

  Query q;
  q.keywords = {0, 2, 5, 7, 11};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;

  Result<TopLResult> brute = BruteForceTopL(*g, q);
  ASSERT_TRUE(brute.ok());
  const auto expected = Scores(brute->communities);

  for (int mask = 0; mask < 8; ++mask) {
    const QueryOptions options =
        Combo((mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0);
    Result<TopLResult> result = detector.Search(q, options);
    ASSERT_TRUE(result.ok());
    if ((mask & 4) == 0) {
      // The member-ball test runs under the score-pruning switch only.
      EXPECT_EQ(result->stats.propagations_avoided, 0u) << "mask " << mask;
    }
    EXPECT_LE(result->stats.propagations_avoided, result->stats.communities_found);
    const auto got = Scores(result->communities);
    ASSERT_EQ(got.size(), expected.size()) << "mask " << mask;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], expected[i], 1e-9) << "mask " << mask << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningSafetyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(MemberBallBoundTest, FiresAcrossPruningSweepSeeds) {
  // The sweep's graphs and query with every rule on (whose answers the
  // sweep checks): the post-extraction test skips some propagations.
  std::uint64_t avoided = 0;
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    SmallWorldOptions gen;
    gen.num_vertices = 160;
    gen.seed = seed;
    gen.keywords.domain_size = 12;
    Result<Graph> g = MakeSmallWorld(gen);
    ASSERT_TRUE(g.ok());
    const BuiltIndex built = BuildIndexFor(*g);
    TopLDetector detector(*g, built.pre(), built.tree);
    Query q;
    q.keywords = {0, 2, 5, 7, 11};
    q.k = 3;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 5;
    Result<TopLResult> result = detector.Search(q);
    ASSERT_TRUE(result.ok());
    avoided += result->stats.propagations_avoided;
  }
  EXPECT_GT(avoided, 0u);
}

// ecc(u) within the induced subgraph G[members], by an independent BFS over
// HasEdge; numeric_limits::max() when some member is unreachable.
std::uint32_t InducedEccentricity(const Graph& g,
                                  const std::vector<VertexId>& members,
                                  std::size_t source) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(members.size(), kInf);
  std::vector<std::size_t> frontier = {source};
  dist[source] = 0;
  std::uint32_t ecc = 0;
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t a : frontier) {
      for (std::size_t b = 0; b < members.size(); ++b) {
        if (dist[b] == kInf && g.HasEdge(members[a], members[b])) {
          dist[b] = dist[a] + 1;
          ecc = std::max(ecc, dist[b]);
          next.push_back(b);
        }
      }
    }
    frontier.swap(next);
  }
  return std::find(dist.begin(), dist.end(), kInf) == dist.end() ? ecc : kInf;
}

// Soundness of the post-extraction member-ball bound, checked on every found
// community g: σ(g) ≤ ScoreBound(u, ecc(u), z) for each member u with
// ecc(u) ≤ r_max, and MemberBallBound::Below fires for exactly the floors
// strictly above the smallest such bound (never at σ(g) itself).
void CheckMemberBallBounds(const Graph& g, const PrecomputedData& pre,
                           const Query& q, std::size_t* checked) {
  SeedCommunityExtractor extractor(g);
  PropagationEngine engine(g);
  MemberBallBound ball_bound;
  const int z = pre.ThresholdIndex(q.theta);
  ASSERT_GE(z, 0);
  const auto zu = static_cast<std::uint32_t>(z);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    SeedCommunity community;
    if (!extractor.Extract(v, q, &community)) continue;
    const double score = engine.Compute(community.vertices, q.theta).score;
    double min_bound = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < community.vertices.size(); ++i) {
      const std::uint32_t ecc = InducedEccentricity(g, community.vertices, i);
      ASSERT_NE(ecc, std::numeric_limits<std::uint32_t>::max())
          << "community of " << v << " is disconnected";
      if (ecc > pre.r_max()) continue;
      const double bound =
          pre.ScoreBound(community.vertices[i], std::max<std::uint32_t>(ecc, 1), zu);
      EXPECT_LE(score, bound) << "center " << v << " member "
                              << community.vertices[i] << " ecc " << ecc;
      min_bound = std::min(min_bound, bound);
      ++*checked;
    }
    EXPECT_FALSE(ball_bound.Below(g, pre, community.vertices, zu, score))
        << "center " << v;
    if (std::isfinite(min_bound)) {
      EXPECT_FALSE(ball_bound.Below(g, pre, community.vertices, zu, min_bound))
          << "center " << v;
      EXPECT_TRUE(ball_bound.Below(
          g, pre, community.vertices, zu,
          std::nextafter(min_bound, std::numeric_limits<double>::infinity())))
          << "center " << v;
    }
  }
}

TEST(MemberBallBoundTest, BoundsEveryFoundCommunity) {
  std::size_t checked = 0;
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    SmallWorldOptions gen;
    gen.num_vertices = 150;
    gen.seed = seed;
    gen.keywords.domain_size = 8;
    Result<Graph> g = MakeSmallWorld(gen);
    ASSERT_TRUE(g.ok());
    PrecomputeOptions pre_opts;
    pre_opts.r_max = 2;
    const BuiltIndex built = BuildIndexFor(*g, pre_opts);
    for (std::uint32_t k : {3u, 4u, 5u}) {
      for (std::uint32_t r : {1u, 2u}) {
        // On the precompute grid (θ = θ_z) and between grid points.
        for (double theta : {0.2, 0.25}) {
          Query q;
          q.keywords = {0, 1, 2, 3, 5};
          q.k = k;
          q.radius = r;
          q.theta = theta;
          CheckMemberBallBounds(*g, built.pre(), q, &checked);
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);  // the sweep found communities to check
}

TEST(MemberBallBoundTest, CliqueCommunityIsItsOwnOneBall) {
  // In K6 every member's 1-ball is the whole graph, so g = hop(u, 1) and the
  // bound is tight: on the grid σ(g) equals it, and the strict test must not
  // skip a community whose score ties the floor.
  const Graph g = testing::MakeClique(6);
  const BuiltIndex built = BuildIndexFor(g);
  for (std::uint32_t k : {4u, 5u, 6u}) {
    Query q;
    q.keywords = {0};
    q.k = k;
    q.radius = 1;
    q.theta = 0.2;
    std::size_t checked = 0;
    CheckMemberBallBounds(g, built.pre(), q, &checked);
    EXPECT_EQ(checked, 36u);  // six centers, six members each

    SeedCommunityExtractor extractor(g);
    SeedCommunity community;
    ASSERT_TRUE(extractor.Extract(0, q, &community));
    ASSERT_EQ(community.vertices.size(), 6u);
    PropagationEngine engine(g);
    const double score = engine.Compute(community.vertices, q.theta).score;
    const int z = built.pre().ThresholdIndex(q.theta);
    ASSERT_GE(z, 0);
    for (VertexId u : community.vertices) {
      EXPECT_EQ(score, built.pre().ScoreBound(u, 1, static_cast<std::uint32_t>(z)));
    }
  }
}

TEST(CenterTrussSafetyTest, ToggleNeverChangesAnswers) {
  // The strengthened support rule (center trussness within the ball) must be
  // a pure optimization: answers with and without it coincide for every k.
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    SmallWorldOptions gen;
    gen.num_vertices = 150;
    gen.seed = seed;
    gen.keywords.domain_size = 10;
    Result<Graph> g = MakeSmallWorld(gen);
    ASSERT_TRUE(g.ok());
    const BuiltIndex built = BuildIndexFor(*g);
    TopLDetector detector(*g, built.pre(), built.tree);
    for (std::uint32_t k : {3u, 4u, 5u}) {
      Query q;
      q.keywords = {0, 2, 5};
      q.k = k;
      q.radius = 2;
      q.theta = 0.2;
      q.top_l = 5;
      QueryOptions with;
      with.use_center_truss_bound = true;
      QueryOptions without;
      without.use_center_truss_bound = false;
      Result<TopLResult> a = detector.Search(q, with);
      Result<TopLResult> b = detector.Search(q, without);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      const auto sa = Scores(a->communities);
      const auto sb = Scores(b->communities);
      ASSERT_EQ(sa.size(), sb.size()) << "seed " << seed << " k " << k;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_NEAR(sa[i], sb[i], 1e-9);
      }
      // And it never refines *more* candidates.
      EXPECT_LE(a->stats.candidates_refined, b->stats.candidates_refined);
    }
  }
}

TEST(PruningEffectivenessTest, MorePruningNeverRefinesMore) {
  // Adding pruning rules monotonically reduces refinement work — the
  // mechanism behind the paper's Fig. 4 ablation.
  SmallWorldOptions gen;
  gen.num_vertices = 250;
  gen.seed = 99;
  gen.keywords.domain_size = 12;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const BuiltIndex built = BuildIndexFor(*g);
  TopLDetector detector(*g, built.pre(), built.tree);

  Query q;
  q.keywords = {0, 2, 5};
  q.k = 4;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 5;

  QueryOptions none;
  none.use_keyword_pruning = false;
  none.use_support_pruning = false;
  none.use_score_pruning = false;
  QueryOptions kw = none;
  kw.use_keyword_pruning = true;
  QueryOptions kw_sup = kw;
  kw_sup.use_support_pruning = true;
  QueryOptions all = kw_sup;
  all.use_score_pruning = true;

  const auto r_none = detector.Search(q, none);
  const auto r_kw = detector.Search(q, kw);
  const auto r_kw_sup = detector.Search(q, kw_sup);
  const auto r_all = detector.Search(q, all);
  ASSERT_TRUE(r_none.ok());
  ASSERT_TRUE(r_kw.ok());
  ASSERT_TRUE(r_kw_sup.ok());
  ASSERT_TRUE(r_all.ok());

  EXPECT_EQ(r_none->stats.candidates_refined, g->NumVertices());
  EXPECT_LE(r_kw->stats.candidates_refined, r_none->stats.candidates_refined);
  EXPECT_LE(r_kw_sup->stats.candidates_refined, r_kw->stats.candidates_refined);
  EXPECT_LE(r_all->stats.candidates_refined, r_kw_sup->stats.candidates_refined);
  // Pruned-candidate counts grow with each added rule.
  EXPECT_GE(r_kw_sup->stats.TotalPruned(), r_kw->stats.TotalPruned());
  EXPECT_GE(r_all->stats.TotalPruned(), r_kw_sup->stats.TotalPruned());
}

TEST(PruningEffectivenessTest, ScorePruningActuallyFires) {
  // On a workload with many candidates, the score rule must prune a
  // non-trivial number once L results are collected (otherwise Lemma 4/7 is
  // dead code).
  SmallWorldOptions gen;
  gen.num_vertices = 300;
  gen.seed = 100;
  gen.keywords.domain_size = 8;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  const BuiltIndex built = BuildIndexFor(*g);
  TopLDetector detector(*g, built.pre(), built.tree);
  Query q;
  q.keywords = {0, 1, 2, 3, 4};
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 2;
  const auto result = detector.Search(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.pruned_score + result->stats.pruned_termination, 0u);
}

}  // namespace
}  // namespace topl
