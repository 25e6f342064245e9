#include "influence/propagation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "influence/influence_calculator.h"
#include "tests/test_util.h"

namespace topl {
namespace {

using testing::MakeGraph;
using testing::ReferenceUpp;

std::map<VertexId, double> AsMap(const InfluencedCommunity& c) {
  std::map<VertexId, double> out;
  for (std::size_t i = 0; i < c.size(); ++i) out[c.vertices[i]] = c.cpp[i];
  return out;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Reference oracle: the textbook lazy-deletion binary-heap max-product
// Dijkstra with fresh O(n) arrays per call. `arc_prob(from, arc)` is the
// probability of crossing `arc` out of `from`. Seeds below theta or at 0 are
// dropped and a repeated seed keeps its largest prob, as in the engine.
template <typename ArcProb>
InfluencedCommunity ReferenceSettle(const Graph& g,
                                    std::span<const WeightedSeed> seeds,
                                    double theta, ArcProb arc_prob) {
  struct HeapEntry {
    double prob;
    VertexId vertex;
    bool operator<(const HeapEntry& other) const { return prob < other.prob; }
  };
  InfluencedCommunity out;
  std::vector<double> best(g.NumVertices(), 0.0);
  std::vector<HeapEntry> heap;
  for (const WeightedSeed& s : seeds) {
    if (s.prob < theta || s.prob == 0.0 || s.prob <= best[s.vertex]) continue;
    best[s.vertex] = s.prob;
    heap.push_back({s.prob, s.vertex});
  }
  std::make_heap(heap.begin(), heap.end());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const HeapEntry top = heap.back();
    heap.pop_back();
    if (top.prob < best[top.vertex]) continue;  // stale
    out.vertices.push_back(top.vertex);
    out.cpp.push_back(top.prob);
    out.score += top.prob;
    best[top.vertex] = 2.0;  // settled: rejects every later relaxation
    for (const Graph::Arc& arc : g.Neighbors(top.vertex)) {
      const double candidate = top.prob * arc_prob(top.vertex, arc);
      if (candidate < theta || candidate == 0.0) continue;
      if (candidate > best[arc.to]) {
        best[arc.to] = candidate;
        heap.push_back({candidate, arc.to});
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
  return out;
}

InfluencedCommunity ReferenceCompute(const Graph& g,
                                     std::span<const VertexId> seeds,
                                     double theta) {
  std::vector<WeightedSeed> weighted;
  for (VertexId s : seeds) weighted.push_back({s, 1.0});
  return ReferenceSettle(g, weighted, theta,
                         [](VertexId, const Graph::Arc& arc) {
                           return static_cast<double>(arc.prob);
                         });
}

InfluencedCommunity ReferenceComputeReverse(const Graph& g,
                                            std::span<const WeightedSeed> seeds,
                                            double theta,
                                            const std::vector<float>& prob_uv,
                                            const std::vector<float>& prob_vu) {
  return ReferenceSettle(g, seeds, theta,
                         [&](VertexId from, const Graph::Arc& arc) {
                           return static_cast<double>(arc.to < from
                                                          ? prob_uv[arc.edge]
                                                          : prob_vu[arc.edge]);
                         });
}

// Asserts the engine's answer equals the oracle's bit for bit (score, the
// cpp sequence, the vertex→cpp map) and that it satisfies the settle-order
// invariant stated on PropagationEngine.
void ExpectSameAsOracle(const InfluencedCommunity& got,
                        const InfluencedCommunity& expected) {
  EXPECT_EQ(Bits(got.score), Bits(expected.score));
  EXPECT_EQ(got.cpp, expected.cpp);
  EXPECT_EQ(AsMap(got), AsMap(expected));
  ASSERT_EQ(got.vertices.size(), got.cpp.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < got.cpp.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(got.cpp[i], got.cpp[i - 1]) << "at settle #" << i;
    }
    sum += got.cpp[i];
  }
  EXPECT_EQ(Bits(got.score), Bits(sum));
}

TEST(PropagationTest, SeedsHaveCppOne) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 2};
  const auto result = engine.Compute(seeds, 0.4);
  const auto cpp = AsMap(result);
  EXPECT_DOUBLE_EQ(cpp.at(0), 1.0);
  EXPECT_DOUBLE_EQ(cpp.at(2), 1.0);
}

TEST(PropagationTest, PathProductChain) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_DOUBLE_EQ(cpp.at(1), 0.5);
  EXPECT_DOUBLE_EQ(cpp.at(2), 0.25);
  EXPECT_DOUBLE_EQ(cpp.at(3), 0.125);
}

TEST(PropagationTest, ThresholdCutsTail) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto result = engine.Compute(seeds, 0.25);
  const auto cpp = AsMap(result);
  EXPECT_EQ(cpp.count(3), 0u);  // 0.125 < 0.25
  EXPECT_EQ(cpp.count(2), 1u);  // 0.25 >= 0.25 (inclusive per Definition 3)
  EXPECT_DOUBLE_EQ(result.score, 1.0 + 0.5 + 0.25);
}

TEST(PropagationTest, TakesBestPathNotShortest) {
  // Two routes 0→3: direct weak arc (0.1) vs two strong hops (0.6*0.6=0.36).
  GraphBuilder b(4);
  b.AddEdge(0, 3, 0.1);
  b.AddEdge(0, 1, 0.6);
  b.AddEdge(1, 3, 0.6);
  b.AddEdge(2, 3, 0.9);  // irrelevant branch
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {0};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_NEAR(cpp.at(3), 0.36, 1e-6);  // arc probs are floats: 0.6f*0.6f
}

TEST(PropagationTest, DirectionalityRespected) {
  // p(0→1) = 0.9 but p(1→0) = 0.1: influence from 1 must use 0.1.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.9, 0.1);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> s0 = {0};
  const std::vector<VertexId> s1 = {1};
  EXPECT_NEAR(AsMap(engine.Compute(s0, 0.0)).at(1), 0.9, 1e-6);
  EXPECT_NEAR(AsMap(engine.Compute(s1, 0.0)).at(0), 0.1, 1e-6);
}

TEST(PropagationTest, MultiSourceTakesMax) {
  // Seeds {0, 3} on a path: middle vertices get the better side.
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 3};
  const auto cpp = AsMap(engine.Compute(seeds, 0.0));
  EXPECT_DOUBLE_EQ(cpp.at(1), 0.5);  // from 0, not 0.25 via 3
  EXPECT_DOUBLE_EQ(cpp.at(2), 0.5);  // from 3
}

TEST(PropagationTest, DuplicateSeedsIgnored) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0, 0, 0};
  const auto result = engine.Compute(seeds, 0.0);
  EXPECT_DOUBLE_EQ(result.score, 1.0 + 0.5 + 0.25);
}

TEST(PropagationTest, EngineReusableAcrossQueries) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> s0 = {0};
  const std::vector<VertexId> s2 = {2};
  const auto first = engine.Compute(s0, 0.0);
  const auto second = engine.Compute(s2, 0.0);
  // No stale state: both runs see a fresh world.
  EXPECT_DOUBLE_EQ(first.score, second.score);
}

TEST(PropagationTest, ComputeFromSourceMatchesSingleSeed) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 3}}, 0.6);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  const auto a = engine.Compute(seeds, 0.1);
  const auto b = engine.ComputeFromSource(0, 0.1);
  EXPECT_EQ(AsMap(a), AsMap(b));
}

// Property: upp from the engine equals exhaustive simple-path enumeration.
class UppPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UppPropertyTest, MatchesPathEnumeration) {
  ErdosRenyiOptions opts;
  opts.num_vertices = 9;  // path enumeration is exponential
  opts.edge_prob = 0.3;
  opts.seed = GetParam();
  opts.weights.min_weight = 0.3;
  opts.weights.max_weight = 0.9;
  Result<Graph> g = MakeErdosRenyi(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  for (VertexId s = 0; s < g->NumVertices(); ++s) {
    const auto cpp = AsMap(engine.ComputeFromSource(s, 0.0));
    for (VertexId t = 0; t < g->NumVertices(); ++t) {
      const double reference = ReferenceUpp(*g, s, t);
      const auto it = cpp.find(t);
      const double engine_val = it == cpp.end() ? 0.0 : it->second;
      EXPECT_NEAR(engine_val, reference, 1e-9) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UppPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: σ_θ is non-increasing in θ and gInf shrinks with θ.
class ThetaMonotonicityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThetaMonotonicityTest, ScoreMonotoneInTheta) {
  SmallWorldOptions opts;
  opts.num_vertices = 100;
  opts.seed = GetParam();
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {0, 1, 2};
  double prev_score = std::numeric_limits<double>::infinity();
  std::size_t prev_size = std::numeric_limits<std::size_t>::max();
  for (double theta : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    const auto result = engine.Compute(seeds, theta);
    EXPECT_LE(result.score, prev_score);
    EXPECT_LE(result.size(), prev_size);
    prev_score = result.score;
    prev_size = result.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThetaMonotonicityTest, ::testing::Values(1, 2, 3));

TEST(ScoresAtThresholdsTest, MatchesIndividualRuns) {
  SmallWorldOptions opts;
  opts.num_vertices = 80;
  opts.seed = 9;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {3, 4};
  const std::vector<double> thetas = {0.1, 0.2, 0.3};
  const auto base = engine.Compute(seeds, 0.1);
  const auto scores = ScoresAtThresholds(base, thetas);
  for (std::size_t z = 0; z < thetas.size(); ++z) {
    const auto direct = engine.Compute(seeds, thetas[z]);
    EXPECT_NEAR(scores[z], direct.score, 1e-9) << "theta=" << thetas[z];
  }
}

TEST(ScoresAtThresholdsTest, EmptyCommunityGivesZeros) {
  InfluencedCommunity empty;
  const std::vector<double> thetas = {0.1, 0.2};
  const auto scores = ScoresAtThresholds(empty, thetas);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST(RestrictToThresholdTest, CanEmptyOut) {
  InfluencedCommunity c;
  c.vertices = {1, 2};
  c.cpp = {0.15, 0.12};
  c.score = 0.27;
  const auto restricted = RestrictToThreshold(c, 0.5);
  EXPECT_EQ(restricted.size(), 0u);
  EXPECT_DOUBLE_EQ(restricted.score, 0.0);
}

TEST(RestrictToThresholdTest, EquivalentToDirectRun) {
  SmallWorldOptions opts;
  opts.num_vertices = 80;
  opts.seed = 10;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  PropagationEngine engine(*g);
  const std::vector<VertexId> seeds = {5};
  const auto base = engine.Compute(seeds, 0.05);
  const auto restricted = RestrictToThreshold(base, 0.2);
  const auto direct = engine.Compute(seeds, 0.2);
  EXPECT_EQ(AsMap(restricted), AsMap(direct));
  EXPECT_NEAR(restricted.score, direct.score, 1e-12);
}

// Randomized sweep against the oracle: small-world graphs (one with a single
// probability everywhere, so cpp ties are the rule), seed sets from one
// vertex up to a whole r=2 ball with duplicates, and θ from 0 to 0.5. Each
// graph runs one engine for over a thousand consecutive calls, so a scratch
// reset missed by any call shows up in a later one.
TEST(PropagationOracleTest, MatchesLazyBinaryHeapBitForBit) {
  constexpr int kCallsPerGraph = 1100;
  const double kThetas[] = {0.0, 0.1, 0.2, 0.5};  // 0.1 = default θ_min
  struct Case {
    std::size_t n;
    std::uint64_t seed;
    double min_weight;
    double max_weight;
  };
  const Case cases[] = {{150, 1, 0.5, 0.6}, {300, 2, 0.3, 0.9},
                        {400, 3, 0.1, 1.0}, {200, 4, 0.5, 0.5}};
  for (const Case& c : cases) {
    SmallWorldOptions opts;
    opts.num_vertices = c.n;
    opts.seed = c.seed;
    opts.weights.min_weight = c.min_weight;
    opts.weights.max_weight = c.max_weight;
    Result<Graph> g = MakeSmallWorld(opts);
    ASSERT_TRUE(g.ok());
    PropagationEngine engine(*g);
    HopExtractor hop(*g);
    LocalGraph ball;
    Rng rng(c.seed);
    for (int call = 0; call < kCallsPerGraph; ++call) {
      const auto center = static_cast<VertexId>(rng.NextBounded(c.n));
      ASSERT_TRUE(hop.Extract(center, 2, {}, &ball));
      // A BFS-order prefix of the r=2 ball: 1 vertex up to all of it.
      std::vector<VertexId> seeds(
          ball.global_ids.begin(),
          ball.global_ids.begin() +
              static_cast<std::ptrdiff_t>(1 + rng.NextBounded(ball.NumVertices())));
      const std::size_t duplicates = rng.NextBounded(3);
      for (std::size_t d = 0; d < duplicates; ++d) {
        seeds.push_back(seeds[rng.NextBounded(seeds.size())]);
      }
      const double theta = kThetas[rng.NextBounded(4)];
      SCOPED_TRACE(::testing::Message() << "n=" << c.n << " call=" << call
                                        << " seeds=" << seeds.size()
                                        << " theta=" << theta);

      const InfluencedCommunity got = engine.Compute(seeds, theta);
      const InfluencedCommunity expected = ReferenceCompute(*g, seeds, theta);
      ExpectSameAsOracle(got, expected);
      EXPECT_EQ(engine.last_settled(), got.size());

      std::vector<double> thresholds = {theta};
      for (double t : {0.1, 0.2, 0.3, 0.5}) {
        if (t > theta) thresholds.push_back(t);
      }
      const std::vector<double> got_scores = ScoresAtThresholds(got, thresholds);
      const std::vector<double> expected_scores =
          ScoresAtThresholds(expected, thresholds);
      for (std::size_t z = 0; z < thresholds.size(); ++z) {
        EXPECT_EQ(Bits(got_scores[z]), Bits(expected_scores[z]))
            << "threshold " << thresholds[z];
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// The updater's reverse dirty-region search runs on the same kernel:
// weighted seeds (some below θ, some repeated) over the reversed arc view
// must settle exactly the oracle's set with the oracle's values, and
// interleaving reverse and forward calls on one engine must not leak state.
TEST(PropagationOracleTest, ReverseMatchesLazyBinaryHeap) {
  SmallWorldOptions opts;
  opts.num_vertices = 300;
  opts.seed = 11;
  opts.weights.min_weight = 0.3;
  opts.weights.max_weight = 0.9;
  Result<Graph> g = MakeSmallWorld(opts);
  ASSERT_TRUE(g.ok());
  std::vector<float> prob_uv;
  std::vector<float> prob_vu;
  CollectEdgeProbabilities(*g, &prob_uv, &prob_vu);
  PropagationEngine engine(*g);
  Rng rng(11);
  for (int call = 0; call < 300; ++call) {
    std::vector<WeightedSeed> seeds;
    const std::size_t count = 1 + rng.NextBounded(8);
    for (std::size_t i = 0; i < count; ++i) {
      seeds.push_back({static_cast<VertexId>(rng.NextBounded(300)),
                       rng.NextDouble(0.05, 1.0)});
    }
    seeds.push_back({seeds.front().vertex, rng.NextDouble(0.05, 1.0)});
    const double theta = call % 3 == 0 ? 0.1 : 0.2;
    SCOPED_TRACE(::testing::Message() << "call=" << call);
    ExpectSameAsOracle(
        engine.ComputeReverse(*g, seeds, theta, prob_uv, prob_vu),
        ReferenceComputeReverse(*g, seeds, theta, prob_uv, prob_vu));
    const VertexId forward[1] = {seeds.back().vertex};
    ExpectSameAsOracle(engine.Compute(forward, theta),
                       ReferenceCompute(*g, forward, theta));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PropagationTest, ReverseFromOneSeedIsUppIntoIt) {
  // Reverse value at y from a single seed s at prob 1 is upp(y, s).
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.9, 0.2);
  b.AddEdge(1, 2, 0.8, 0.3);
  b.AddEdge(2, 3, 0.7, 0.4);
  Result<Graph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  std::vector<float> prob_uv;
  std::vector<float> prob_vu;
  CollectEdgeProbabilities(*g, &prob_uv, &prob_vu);
  PropagationEngine engine(*g);
  const WeightedSeed seeds[1] = {{3, 1.0}};
  const auto reverse = AsMap(engine.ComputeReverse(*g, seeds, 0.0, prob_uv, prob_vu));
  for (VertexId y = 0; y < 4; ++y) {
    EXPECT_NEAR(reverse.at(y), AsMap(engine.ComputeFromSource(y, 0.0)).at(3), 1e-12)
        << "y=" << y;
  }
  EXPECT_NEAR(reverse.at(0), 0.9 * 0.8 * 0.7, 1e-6);
}

TEST(PropagationTest, WorkCountersDescribeLastCall) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, 0.5);
  PropagationEngine engine(g);
  const std::vector<VertexId> seeds = {0};
  EXPECT_EQ(engine.Compute(seeds, 0.0).size(), 4u);
  EXPECT_EQ(engine.last_settled(), 4u);
  // A path never holds more than one queued vertex: nothing to sift.
  EXPECT_EQ(engine.last_sift_steps(), 0u);
  EXPECT_EQ(engine.Compute(seeds, 0.3).size(), 2u);
  EXPECT_EQ(engine.last_settled(), 2u);
}

TEST(PropagationEnginePoolTest, ConcurrentLeasesComputeIdenticalResults) {
  // Chunked influence evaluation leans on the pool: N threads leasing
  // engines concurrently must each get bit-identical results to a private
  // engine, and the pool must grow only to peak concurrency.
  SmallWorldOptions gen;
  gen.num_vertices = 300;
  gen.seed = 5;
  Result<Graph> g = MakeSmallWorld(gen);
  ASSERT_TRUE(g.ok());

  PropagationEngine reference(*g);
  std::vector<InfluencedCommunity> expected;
  for (VertexId v = 0; v < 8; ++v) {
    expected.push_back(reference.ComputeFromSource(v, 0.2));
  }

  PropagationEnginePool pool(*g);
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        PropagationEnginePool::Lease engine(&pool);
        for (VertexId v = 0; v < 8; ++v) {
          const InfluencedCommunity got = engine->ComputeFromSource(v, 0.2);
          if (got.vertices != expected[v].vertices ||
              got.cpp != expected[v].cpp || got.score != expected[v].score) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_LE(pool.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace topl
