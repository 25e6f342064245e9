#include "core/seed_community.h"

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::MakeClique;
using testing::MakeFig1Like;
using testing::MakeKeywordGraph;
using testing::VerifySeedCommunity;

Query BasicQuery(std::vector<KeywordId> keywords, std::uint32_t k,
                 std::uint32_t radius) {
  Query q;
  q.keywords = std::move(keywords);
  q.k = k;
  q.radius = radius;
  q.theta = 0.2;
  q.top_l = 5;
  return q;
}

TEST(SeedCommunityTest, CliqueExtractsFully) {
  const Graph g = MakeClique(5);
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  ASSERT_TRUE(extractor.Extract(0, BasicQuery({0}, 5, 1), &c));
  EXPECT_EQ(c.vertices.size(), 5u);
  EXPECT_EQ(c.edges.size(), 10u);
  EXPECT_TRUE(VerifySeedCommunity(g, BasicQuery({0}, 5, 1), c));
}

TEST(SeedCommunityTest, KTooLargeGivesNothing) {
  const Graph g = MakeClique(5);
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  EXPECT_FALSE(extractor.Extract(0, BasicQuery({0}, 6, 1), &c));
}

TEST(SeedCommunityTest, CenterWithoutQueryKeywordFails) {
  const Graph g = MakeKeywordGraph(3, {{0, 1}, {1, 2}, {0, 2}},
                                   {{1}, {2}, {2}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  // Center 0 lacks query keyword 2 — no community regardless of structure.
  EXPECT_FALSE(extractor.Extract(0, BasicQuery({2}, 2, 1), &c));
  // Center 1 has it; with k=2 the keyword-filtered edge {1, 2} qualifies.
  ASSERT_TRUE(extractor.Extract(1, BasicQuery({2}, 2, 1), &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{1, 2}));
  // At k=3 the two keyword holders cannot form a triangle: no community.
  EXPECT_FALSE(extractor.Extract(1, BasicQuery({2}, 3, 1), &c));
}

TEST(SeedCommunityTest, KeywordFilterShrinksCommunity) {
  // K4 where vertex 3 lacks the query keyword: a 3-truss {0,1,2} survives.
  const Graph g = MakeKeywordGraph(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
      {{5}, {5}, {5}, {9}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q = BasicQuery({5}, 3, 1);
  ASSERT_TRUE(extractor.Extract(0, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

TEST(SeedCommunityTest, Fig1CoreFound) {
  const Graph g = MakeFig1Like();
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  // k=4 around center 0 with keyword "movies" (0): exactly the K4 core.
  const Query q = BasicQuery({0}, 4, 2);
  ASSERT_TRUE(extractor.Extract(0, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

TEST(SeedCommunityTest, Fig1WeakTriangleExcludedAtK4) {
  const Graph g = MakeFig1Like();
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  // Center 4 sits in a plain triangle: it survives k=3 (keyword 2)...
  ASSERT_TRUE(extractor.Extract(4, BasicQuery({2}, 3, 1), &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{4, 5, 6}));
  // ...but not k=4.
  EXPECT_FALSE(extractor.Extract(4, BasicQuery({2}, 4, 1), &c));
}

TEST(SeedCommunityTest, RadiusConstraintMeasuredInsideCommunity) {
  // Two K4s sharing vertex 3: {0,1,2,3} and {3,4,5,6}; center 0 with r=1
  // keeps only its own K4 even though the other is within 2 hops.
  const Graph g = MakeKeywordGraph(
      7,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
       {3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6}},
      {{1}, {1}, {1}, {1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q1 = BasicQuery({1}, 4, 1);
  ASSERT_TRUE(extractor.Extract(0, q1, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(VerifySeedCommunity(g, q1, c));
  // With r=2 both K4s join (distance from 0 to 4/5/6 is 2 via vertex 3).
  const Query q2 = BasicQuery({1}, 4, 2);
  ASSERT_TRUE(extractor.Extract(0, q2, &c));
  EXPECT_EQ(c.vertices.size(), 7u);
  EXPECT_TRUE(VerifySeedCommunity(g, q2, c));
}

TEST(SeedCommunityTest, CliqueChainTruncatedByBfsRadius) {
  // Chain of K4s A{0,1,2,3} - B{3,4,5,6} - C{6,7,8,9}: with r=2 from center
  // 0, C's private vertices sit at distance 3 and never enter the candidate
  // subgraph, while 6 (distance 2) stays — B alone keeps it a 4-truss
  // member.
  const Graph g = MakeKeywordGraph(
      10,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},          // A
       {3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6},          // B
       {6, 7}, {6, 8}, {6, 9}, {7, 8}, {7, 9}, {8, 9}},         // C
      {{1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q = BasicQuery({1}, 4, 2);
  ASSERT_TRUE(extractor.Extract(0, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

TEST(SeedCommunityTest, RadiusEvictionCascadesIntoRepeel) {
  // The genuine fixpoint case: peeling removes a shortcut edge, which pushes
  // vertices beyond r; their eviction must trigger a re-peel that unravels
  // the structure they supported.
  //
  // A = K4{0,1,2,3} (center 0), B = K4{3,4,5,6}, triangle T = {6,8,9},
  // shortcut hub 10 with thin edges to 0, 8, 9. Pre-peel, 8 and 9 are at
  // distance 2 through the hub. The hub's edge to 0 has no triangle and dies
  // at k=3, stretching 8/9 to distance 3 > r; evicting them must cascade and
  // also dissolve the {6,8,9} triangle and the hub.
  const Graph g = MakeKeywordGraph(
      11,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},   // A
       {3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6},   // B
       {6, 8}, {6, 9}, {8, 9},                           // T
       {10, 0}, {10, 8}, {10, 9}},                       // hub
      {{1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q = BasicQuery({1}, 3, 2);
  ASSERT_TRUE(extractor.Extract(0, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

TEST(SeedCommunityTest, DisconnectedTrussComponentDropped) {
  // Two K4s joined by a single edge (not enough to merge them into one
  // truss component at k=4... the bridge edge dies, disconnecting them).
  const Graph g = MakeKeywordGraph(
      8,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
       {4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
       {3, 4}},
      {{1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q = BasicQuery({1}, 4, 3);
  ASSERT_TRUE(extractor.Extract(0, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

TEST(SeedCommunityTest, IsolatedCenterAfterPeelFails) {
  // Path graph: no triangles anywhere, so k=3 leaves the center edgeless.
  const Graph g = MakeKeywordGraph(3, {{0, 1}, {1, 2}}, {{1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  EXPECT_FALSE(extractor.Extract(1, BasicQuery({1}, 3, 2), &c));
}

TEST(SeedCommunityTest, KTwoKeepsEdgesWithinRadius) {
  // k=2 imposes no triangle constraint: community = keyword-filtered
  // connected subgraph within r.
  const Graph g = MakeKeywordGraph(4, {{0, 1}, {1, 2}, {2, 3}},
                                   {{1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  const Query q = BasicQuery({1}, 2, 2);
  ASSERT_TRUE(extractor.Extract(1, q, &c));
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(VerifySeedCommunity(g, q, c));
}

// Property sweep: every extracted community on random graphs satisfies all
// Definition 2 constraints (independent checker), and extraction is
// deterministic.
class ExtractorPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(ExtractorPropertyTest, AllConstraintsHold) {
  const auto [seed, k, radius] = GetParam();
  SmallWorldOptions gen;
  gen.num_vertices = 150;
  gen.seed = seed;
  gen.keywords.domain_size = 8;  // dense keywords so communities exist
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());
  SeedCommunityExtractor extractor(*g);
  Query q = BasicQuery({0, 1, 2}, k, radius);
  std::size_t found = 0;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    SeedCommunity c;
    if (!extractor.Extract(v, q, &c)) continue;
    ++found;
    EXPECT_EQ(c.center, v);
    EXPECT_TRUE(VerifySeedCommunity(*g, q, c)) << "center " << v;
    // Determinism.
    SeedCommunity again;
    ASSERT_TRUE(extractor.Extract(v, q, &again));
    EXPECT_EQ(c.vertices, again.vertices);
  }
  if (k <= 3 && radius >= 2) {
    EXPECT_GT(found, 0u) << "sweep found no communities at all — weak test";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtractorPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(3u, 4u),
                       ::testing::Values(1u, 2u, 3u)));

// Soundness sweep for the ego-net test that Extract runs before the ball
// BFS: on random graphs, for every center and query shape, Extract must
// return exactly what materialize-then-Verify on the reference path returns.
// The coverage counters make sure both sides of the test were exercised:
// centers it rejected, and centers it admitted that the fixpoint then
// rejected.
struct EgoSweepCoverage {
  std::size_t ego_rejected = 0;
  std::size_t admitted_then_failed = 0;
  std::size_t found = 0;
};

void SweepAgainstReference(const Graph& g, EgoSweepCoverage* coverage) {
  SeedCommunityExtractor extractor(g);
  SeedCommunityExtractor reference(g);
  HopExtractor hop(g);
  LocalGraph ball;
  const std::vector<std::vector<KeywordId>> keyword_sets = {
      {0}, {1, 3}, {0, 2, 5}, {1, 2, 4, 6}, {0, 1, 2, 3, 4}};
  for (std::uint32_t k = 2; k <= 6; ++k) {
    for (std::uint32_t radius = 1; radius <= 3; ++radius) {
      for (const std::vector<KeywordId>& keywords : keyword_sets) {
        const Query q = BasicQuery(keywords, k, radius);
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          SeedCommunity got;
          SeedCommunity want;
          const bool found = extractor.Extract(v, q, &got);
          const bool expected =
              hop.Extract(v, radius, keywords, &ball) &&
              reference.Verify(ball, q, SeedCommunityExtractor::Mode::kReference,
                               &want);
          ASSERT_EQ(found, expected)
              << "center " << v << " k=" << k << " r=" << radius
              << " |Q|=" << keywords.size();
          if (extractor.last_ego_rejected()) {
            ++coverage->ego_rejected;
          } else if (!found) {
            ++coverage->admitted_then_failed;
          }
          if (!found) continue;
          ++coverage->found;
          EXPECT_EQ(got.center, want.center);
          EXPECT_EQ(got.vertices, want.vertices) << "center " << v;
          std::sort(got.edges.begin(), got.edges.end());
          std::sort(want.edges.begin(), want.edges.end());
          EXPECT_EQ(got.edges, want.edges) << "center " << v;
        }
      }
    }
  }
}

TEST(SeedCommunityTest, EgoNetTestMatchesReferenceExtraction) {
  EgoSweepCoverage coverage;
  for (const std::uint64_t seed : {1, 2, 3}) {
    SmallWorldOptions gen;
    gen.num_vertices = 120;
    gen.seed = seed;
    gen.keywords.domain_size = 8;
    Result<Graph> g = MakeSmallWorld(gen);
    ASSERT_TRUE(g.ok());
    SweepAgainstReference(*g, &coverage);
  }
  for (const std::uint64_t seed : {4, 5, 6}) {
    ErdosRenyiOptions gen;
    gen.num_vertices = 80;
    gen.edge_prob = 0.12;
    gen.seed = seed;
    gen.keywords.domain_size = 8;
    Result<Graph> g = MakeErdosRenyi(gen);
    ASSERT_TRUE(g.ok());
    SweepAgainstReference(*g, &coverage);
  }
  EXPECT_GT(coverage.ego_rejected, 0u);
  EXPECT_GT(coverage.admitted_then_failed, 0u);
  EXPECT_GT(coverage.found, 0u);
}

TEST(SeedCommunityTest, EgoNetTestSkippedForUnvalidatedK) {
  // k < 2 would underflow k - 2; the test is skipped and Extract behaves as
  // materialize-then-Verify.
  const Graph g = MakeKeywordGraph(4, {{0, 1}, {1, 2}, {2, 3}},
                                   {{1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunityExtractor reference(g);
  HopExtractor hop(g);
  LocalGraph ball;
  for (const std::uint32_t k : {0u, 1u}) {
    const Query q = BasicQuery({1}, k, 2);
    SeedCommunity got;
    SeedCommunity want;
    ASSERT_TRUE(hop.Extract(1, q.radius, q.keywords, &ball));
    const bool expected = reference.Verify(
        ball, q, SeedCommunityExtractor::Mode::kIncremental, &want);
    EXPECT_EQ(extractor.Extract(1, q, &got), expected) << "k=" << k;
    EXPECT_FALSE(extractor.last_ego_rejected()) << "k=" << k;
    EXPECT_EQ(got.vertices, want.vertices) << "k=" << k;
  }
}

TEST(SeedCommunityTest, EgoNetTestRejectsTriangleFreeCenter) {
  // Center 0 has two keyword neighbours, but they are not adjacent, so no
  // edge at the center can close a triangle: rejected at k=3 before any BFS.
  const Graph g = MakeKeywordGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
                                   {{1}, {1}, {1}, {1}});
  SeedCommunityExtractor extractor(g);
  SeedCommunity c;
  EXPECT_FALSE(extractor.Extract(0, BasicQuery({1}, 3, 2), &c));
  EXPECT_TRUE(extractor.last_ego_rejected());
  EXPECT_EQ(extractor.last_subgraph_edges(), 0u);
  // k=2 needs no apex: admitted, and the path structure is a community.
  ASSERT_TRUE(extractor.Extract(0, BasicQuery({1}, 2, 2), &c));
  EXPECT_FALSE(extractor.last_ego_rejected());
}

}  // namespace
}  // namespace topl
