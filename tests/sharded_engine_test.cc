// The sharded-serving contract: a ShardedEngine's TopL and DTopL answers are
// byte-identical to a single Engine over the whole graph — same communities,
// same member/edge lists, bit-identical scores — at every shard count, after
// any interleaved ApplyUpdate stream, including deletes and inserts that
// cross shard-ownership boundaries. A 20-graph × {1,2,4,8}-shard sweep
// enforces exactly that, alongside the artifact-family round-trip (shard
// manifests reject mixed builds; a lone member is refused by the unsharded
// entry points), per-shard result caches, and a concurrent search-vs-update
// race for TSan.

#include "shard/sharded_engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "topl.h"

namespace topl {
namespace {

PrecomputeOptions SweepPrecomputeOptions() {
  PrecomputeOptions options;
  options.r_max = 2;
  options.signature_bits = 64;
  return options;
}

Graph CopyGraph(const Graph& g) {
  Result<Graph> copy = ApplyDelta(g, GraphDelta());
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  return std::move(copy).value();
}

void ExpectSameCommunities(const std::vector<CommunityResult>& got,
                           const std::vector<CommunityResult>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].community.center, want[i].community.center) << label;
    EXPECT_EQ(got[i].community.vertices, want[i].community.vertices) << label;
    EXPECT_EQ(got[i].community.edges, want[i].community.edges) << label;
    EXPECT_EQ(got[i].influence.vertices, want[i].influence.vertices) << label;
    EXPECT_EQ(got[i].influence.cpp, want[i].influence.cpp) << label;
    EXPECT_EQ(got[i].score(), want[i].score()) << label;
  }
}

/// Runs the same TopL + DTopL queries through the sharded coordinator and
/// through the single reference engine, and demands identical answers.
void ExpectShardedMatchesSingle(ShardedEngine& sharded, Engine& single,
                                const std::vector<Query>& queries,
                                const std::string& label) {
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string where = label + " query#" + std::to_string(qi);
    Result<TopLResult> got = sharded.Search(queries[qi]);
    Result<TopLResult> want = single.Search(queries[qi]);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
    EXPECT_FALSE(got->truncated) << where;
    EXPECT_EQ(got->score_upper_bound, want->score_upper_bound) << where;
    ExpectSameCommunities(got->communities, want->communities, where);

    Result<DTopLResult> got_d = sharded.SearchDiversified(queries[qi]);
    Result<DTopLResult> want_d = single.SearchDiversified(queries[qi]);
    ASSERT_TRUE(got_d.ok()) << where << ": " << got_d.status().ToString();
    ASSERT_TRUE(want_d.ok()) << where << ": " << want_d.status().ToString();
    EXPECT_EQ(got_d->diversity_score, want_d->diversity_score) << where;
    EXPECT_EQ(got_d->pool_centers, want_d->pool_centers) << where;
    EXPECT_EQ(got_d->pool_floor, want_d->pool_floor) << where;
    EXPECT_EQ(got_d->pool_full, want_d->pool_full) << where;
    ExpectSameCommunities(got_d->communities, want_d->communities,
                          where + " (dtopl)");
  }
}

GraphDelta MakeSweepDelta(const Graph& g, Rng& rng, int ops) {
  RandomDeltaOptions options;
  options.num_ops = ops;
  options.keyword_domain = 12;
  return MakeRandomDelta(g, rng, options);
}

std::vector<KeywordId> SampleQueryKeywords(const Graph& g, Rng& rng,
                                           std::uint32_t count) {
  std::vector<KeywordId> out;
  for (int attempt = 0; out.size() < count && attempt < 1000; ++attempt) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto kws = g.Keywords(v);
    if (kws.empty()) continue;
    const KeywordId w = kws[rng.NextBounded(kws.size())];
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Query> SampleQueries(const Graph& g, Rng& rng, int count) {
  std::vector<Query> queries;
  for (int qi = 0; qi < count; ++qi) {
    Query q;
    q.keywords = SampleQueryKeywords(g, rng, 2);
    if (q.keywords.empty()) continue;
    q.k = 3 + static_cast<std::uint32_t>(rng.NextBounded(2));
    q.radius = 1 + static_cast<std::uint32_t>(rng.NextBounded(2));
    q.theta = 0.2;
    q.top_l = 3;
    queries.push_back(std::move(q));
  }
  return queries;
}

// The acceptance sweep: 20 random graphs × shard counts {1,2,4,8}, each
// advanced through interleaved random delta batches. After every batch,
// every sharded deployment must answer exactly like the single engine that
// received the same stream.
TEST(ShardedSweepTest, ShardedEqualsSingleAcrossShardCountsAndUpdates) {
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
  for (std::uint64_t graph_seed = 0; graph_seed < 20; ++graph_seed) {
    ErdosRenyiOptions gen;
    gen.num_vertices = 48 + 4 * graph_seed;  // 48..124 vertices
    gen.edge_prob = 0.08;
    gen.seed = 1000 + graph_seed;
    gen.keywords.domain_size = 12;
    gen.keywords.keywords_per_vertex = 3;
    Result<Graph> graph = MakeErdosRenyi(gen);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    EngineOptions single_options;
    single_options.precompute = SweepPrecomputeOptions();
    single_options.num_threads = 2;
    Result<std::unique_ptr<Engine>> single =
        Engine::FromGraph(CopyGraph(*graph), single_options);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    std::vector<std::unique_ptr<ShardedEngine>> sharded;
    for (std::uint32_t num_shards : shard_counts) {
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      options.engine.precompute = SweepPrecomputeOptions();
      options.engine.num_threads = 1;
      Result<std::unique_ptr<ShardedEngine>> deployment =
          ShardedEngine::FromGraph(CopyGraph(*graph), options);
      ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
      sharded.push_back(std::move(deployment).value());
    }

    Rng rng(7000 + graph_seed);
    for (int batch = 0; batch < 3; ++batch) {
      const std::string label = "graph#" + std::to_string(graph_seed) +
                                " batch#" + std::to_string(batch);
      if (batch > 0) {
        const std::shared_ptr<const EngineSnapshot> snap =
            (*single)->snapshot();
        const GraphDelta delta = MakeSweepDelta(*snap->graph, rng, 6);
        Result<RebuildScope> single_scope = (*single)->ApplyUpdate(delta);
        ASSERT_TRUE(single_scope.ok()) << single_scope.status().ToString();
        for (std::size_t d = 0; d < sharded.size(); ++d) {
          Result<RebuildScope> scope = sharded[d]->ApplyUpdate(delta);
          ASSERT_TRUE(scope.ok())
              << label << " shards=" << shard_counts[d] << ": "
              << scope.status().ToString();
          EXPECT_EQ(scope->num_vertices, snap->graph->NumVertices()) << label;
        }
      }
      const std::vector<Query> queries =
          SampleQueries(*(*single)->snapshot()->graph, rng, 3);
      for (std::size_t d = 0; d < sharded.size(); ++d) {
        ExpectShardedMatchesSingle(
            *sharded[d], **single, queries,
            label + " shards=" + std::to_string(shard_counts[d]));
      }
    }
  }
}

// Deltas aimed at shard boundaries: deletes of edges whose endpoints live on
// different shards (the "halo" case a partial-replica design would get
// wrong) and inserts that newly bridge two shards. The 8-way deployment must
// keep answering exactly like the single engine.
TEST(ShardedEngineTest, CrossShardBoundaryDeltas) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 96;
  gen.edge_prob = 0.08;
  gen.seed = 424;
  gen.keywords.domain_size = 12;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  EngineOptions single_options;
  single_options.precompute = SweepPrecomputeOptions();
  single_options.num_threads = 2;
  Result<std::unique_ptr<Engine>> single =
      Engine::FromGraph(CopyGraph(*graph), single_options);
  ASSERT_TRUE(single.ok());

  ShardedEngineOptions options;
  options.num_shards = 8;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::FromGraph(CopyGraph(*graph), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ShardPartition& partition = (*sharded)->partition();

  // Delete up to 4 cross-owner edges.
  GraphDelta delta;
  const Graph& g = *graph;
  int deletes = 0;
  for (VertexId u = 0; u < g.NumVertices() && deletes < 4; ++u) {
    for (const auto& edge : g.Neighbors(u)) {
      if (edge.to <= u) continue;
      if (partition.owner[u] != partition.owner[edge.to]) {
        delta.DeleteEdge(u, edge.to);
        if (++deletes >= 4) break;
      }
    }
  }
  ASSERT_GT(deletes, 0) << "no cross-shard edge found";
  // Insert one new edge bridging two shards (grow path across a boundary).
  bool inserted = false;
  for (VertexId u = 0; u < g.NumVertices() && !inserted; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v)) continue;
      if (partition.owner[u] == partition.owner[v]) continue;
      delta.InsertEdge(u, v, 0.55);
      inserted = true;
      break;
    }
  }
  ASSERT_TRUE(inserted);

  Result<RebuildScope> single_scope = (*single)->ApplyUpdate(delta);
  ASSERT_TRUE(single_scope.ok()) << single_scope.status().ToString();
  Result<RebuildScope> sharded_scope = (*sharded)->ApplyUpdate(delta);
  ASSERT_TRUE(sharded_scope.ok()) << sharded_scope.status().ToString();

  Rng rng(11);
  const std::vector<Query> queries =
      SampleQueries(*(*single)->snapshot()->graph, rng, 4);
  ASSERT_FALSE(queries.empty());
  ExpectShardedMatchesSingle(**sharded, **single, queries, "cross-shard");
}

// Offline artifact family: BuildArtifacts → Open must serve exactly like an
// in-memory build, artifacts carry the shard manifest, and families that
// were not cut from the same partition are rejected before serving.
TEST(ShardedEngineTest, ArtifactFamilyRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("topl_sharded_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  ErdosRenyiOptions gen;
  gen.num_vertices = 64;
  gen.edge_prob = 0.09;
  gen.seed = 77;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;

  const std::string prefix = (dir / "family.idx").string();
  ASSERT_TRUE(
      ShardedEngine::BuildArtifacts(*graph, options, prefix, false).ok());

  // Every member carries its manifest, visible to Inspect.
  for (std::uint32_t s = 0; s < 4; ++s) {
    Result<ArtifactInfo> info =
        ArtifactReader::Inspect(ShardedEngine::ShardArtifactPath(prefix, s));
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->has_shard_map);
    EXPECT_EQ(info->num_shards, 4u);
    EXPECT_EQ(info->shard_index, s);
  }

  Result<std::unique_ptr<ShardedEngine>> opened =
      ShardedEngine::Open(prefix, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<std::unique_ptr<ShardedEngine>> built =
      ShardedEngine::FromGraph(CopyGraph(*graph), options);
  ASSERT_TRUE(built.ok());

  Rng rng(5);
  std::vector<Query> queries = SampleQueries(*graph, rng, 3);
  ASSERT_FALSE(queries.empty());
  for (const Query& q : queries) {
    Result<TopLResult> got = (*opened)->Search(q);
    Result<TopLResult> want = (*built)->Search(q);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectSameCommunities(got->communities, want->communities, "round-trip");
  }

  // Wrong shard count: the family says 4, the caller asks for 2.
  {
    ShardedEngineOptions two = options;
    two.num_shards = 2;
    Result<std::unique_ptr<ShardedEngine>> bad =
        ShardedEngine::Open(prefix, two);
    EXPECT_FALSE(bad.ok());
  }

  // Unsharded member: a plain artifact dropped into the family slot.
  {
    Result<PrecomputedData> pre =
        PrecomputedData::Build(*graph, options.engine.precompute);
    ASSERT_TRUE(pre.ok());
    Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
    ASSERT_TRUE(tree.ok());
    const std::string mixed = (dir / "mixed.idx").string();
    for (std::uint32_t s = 0; s < 4; ++s) {
      fs::copy_file(ShardedEngine::ShardArtifactPath(prefix, s),
                    ShardedEngine::ShardArtifactPath(mixed, s));
    }
    ASSERT_TRUE(ArtifactWriter::Write(
                    *graph, *pre, *tree,
                    ShardedEngine::ShardArtifactPath(mixed, 2))
                    .ok());
    Result<std::unique_ptr<ShardedEngine>> bad =
        ShardedEngine::Open(mixed, options);
    EXPECT_FALSE(bad.ok());
  }

  // Foreign member: shard 1 replaced by the same position of a family built
  // from a different graph — the partition digests cannot agree.
  {
    ErdosRenyiOptions other_gen = gen;
    other_gen.seed = 78;
    other_gen.num_vertices = 60;
    Result<Graph> other = MakeErdosRenyi(other_gen);
    ASSERT_TRUE(other.ok());
    const std::string foreign = (dir / "foreign.idx").string();
    ASSERT_TRUE(
        ShardedEngine::BuildArtifacts(*other, options, foreign, false).ok());
    const std::string franken = (dir / "franken.idx").string();
    for (std::uint32_t s = 0; s < 4; ++s) {
      fs::copy_file(ShardedEngine::ShardArtifactPath(
                        s == 1 ? foreign : prefix, s),
                    ShardedEngine::ShardArtifactPath(franken, s));
    }
    Result<std::unique_ptr<ShardedEngine>> bad =
        ShardedEngine::Open(franken, options);
    EXPECT_FALSE(bad.ok());
  }

  fs::remove_all(dir);
}

// A family member's tree covers only its shard's centers, so the unsharded
// entry points refuse it instead of serving a partial top-L; and a member
// re-encoded with its manifest stays a member the family can still serve.
TEST(ShardedEngineTest, SingleMemberIsOnlyServedThroughItsFamily) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("topl_shard_member_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  ErdosRenyiOptions gen;
  gen.num_vertices = 64;
  gen.edge_prob = 0.09;
  gen.seed = 79;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;
  const std::string prefix = (dir / "family.idx").string();
  ASSERT_TRUE(
      ShardedEngine::BuildArtifacts(*graph, options, prefix, false).ok());
  const std::string member = ShardedEngine::ShardArtifactPath(prefix, 1);

  EngineOptions single = options.engine;
  single.index_path = member;
  Result<std::unique_ptr<Engine>> opened = Engine::Open(single);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  EXPECT_NE(opened.status().message().find("shard 1 of 4"), std::string::npos)
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("--shards=4"), std::string::npos)
      << opened.status().ToString();

  single.journal_path = (dir / "wal.jrn").string();
  Result<std::unique_ptr<Engine>> recovered = Engine::Recover(single);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsInvalidArgument());

  // Re-encode every member (compressed) with its manifest; without one the
  // writer refuses the partial tree instead of writing an unreadable file.
  const std::string packed = (dir / "packed.idx").string();
  for (std::uint32_t s = 0; s < 4; ++s) {
    Result<MappedIndex> in =
        ArtifactReader::Open(ShardedEngine::ShardArtifactPath(prefix, s));
    ASSERT_TRUE(in.ok()) << in.status().ToString();
    ASSERT_FALSE(in->shard_manifest.empty());
    const std::string out = ShardedEngine::ShardArtifactPath(packed, s);
    EXPECT_TRUE(ArtifactWriter::Write(in->graph, *in->pre, in->tree, out)
                    .IsInvalidArgument());
    ArtifactWriteOptions write_options;
    write_options.compress = true;
    write_options.shard_manifest = in->shard_manifest;
    ASSERT_TRUE(ArtifactWriter::Write(in->graph, *in->pre, in->tree, out,
                                      write_options)
                    .ok());
    Result<ArtifactInfo> info = ArtifactReader::Inspect(out);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->version, 3u);
    EXPECT_EQ(info->shard_index, s);
  }
  Result<std::unique_ptr<ShardedEngine>> family =
      ShardedEngine::Open(packed, options);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  Result<std::unique_ptr<Engine>> whole =
      Engine::FromGraph(CopyGraph(*graph), options.engine);
  ASSERT_TRUE(whole.ok());
  Rng rng(6);
  const std::vector<Query> queries = SampleQueries(*graph, rng, 3);
  ASSERT_FALSE(queries.empty());
  ExpectShardedMatchesSingle(**family, **whole, queries, "re-encoded family");

  fs::remove_all(dir);
}

// Per-shard result caches: answers served out of a shard's cache stay exact,
// and an update's shard-local dirty set invalidates exactly the affected
// shards' entries — repeated queries after the update match the single
// engine again.
TEST(ShardedEngineTest, PerShardResultCachesStayExact) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 80;
  gen.edge_prob = 0.08;
  gen.seed = 99;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  EngineOptions single_options;
  single_options.precompute = SweepPrecomputeOptions();
  single_options.num_threads = 2;
  Result<std::unique_ptr<Engine>> single =
      Engine::FromGraph(CopyGraph(*graph), single_options);
  ASSERT_TRUE(single.ok());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;
  options.engine.enable_result_cache = true;
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::FromGraph(CopyGraph(*graph), options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE((*sharded)->Stats().cache_enabled);

  Rng rng(13);
  const std::vector<Query> queries = SampleQueries(*graph, rng, 3);
  ASSERT_FALSE(queries.empty());
  // First pass fills the shard caches, second is served (partly) from them.
  ExpectShardedMatchesSingle(**sharded, **single, queries, "cache-fill");
  ExpectShardedMatchesSingle(**sharded, **single, queries, "cache-hit");

  const GraphDelta delta =
      MakeSweepDelta(*(*single)->snapshot()->graph, rng, 6);
  ASSERT_TRUE((*single)->ApplyUpdate(delta).ok());
  ASSERT_TRUE((*sharded)->ApplyUpdate(delta).ok());
  ExpectShardedMatchesSingle(**sharded, **single, queries, "post-update");
}

// Progressive queries through the coordinator: without a deadline the merged
// stream finishes with exactly the plain answer; the final callback fires
// once with the merged communities.
TEST(ShardedEngineTest, ProgressiveMatchesPlainSearch) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 72;
  gen.edge_prob = 0.08;
  gen.seed = 300;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::FromGraph(CopyGraph(*graph), options);
  ASSERT_TRUE(sharded.ok());

  Rng rng(17);
  const std::vector<Query> queries = SampleQueries(*graph, rng, 3);
  ASSERT_FALSE(queries.empty());
  for (const Query& q : queries) {
    int callbacks = 0;
    std::vector<CommunityResult> streamed;
    Result<TopLResult> progressive = (*sharded)->SearchProgressive(
        q, ProgressiveOptions{}, [&](const ProgressiveUpdate& update) {
          ++callbacks;
          streamed.assign(update.communities.begin(),
                          update.communities.end());
          return true;
        });
    Result<TopLResult> plain = (*sharded)->Search(q);
    ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(callbacks, 1);
    EXPECT_FALSE(progressive->truncated);
    ExpectSameCommunities(progressive->communities, plain->communities,
                          "progressive-vs-plain");
    ExpectSameCommunities(streamed, plain->communities, "streamed");
  }
}

// Configuration errors surface like the single engine's.
TEST(ShardedEngineTest, RejectsInvalidConfigurations) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 24;
  gen.seed = 3;
  gen.keywords.domain_size = 8;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());

  ShardedEngineOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ShardedEngine::FromGraph(CopyGraph(*graph), zero).ok());

  ShardedEngineOptions too_many;
  too_many.num_shards = 25;
  EXPECT_FALSE(ShardedEngine::FromGraph(CopyGraph(*graph), too_many).ok());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::FromGraph(CopyGraph(*graph), options);
  ASSERT_TRUE(sharded.ok());

  Query bad_radius;
  bad_radius.keywords = {0};
  bad_radius.radius = 9;  // > r_max
  Result<TopLResult> r = (*sharded)->Search(bad_radius);
  EXPECT_FALSE(r.ok());

  Query no_keywords;  // fails Query::Validate
  Result<TopLResult> v = (*sharded)->Search(no_keywords);
  EXPECT_FALSE(v.ok());
}

// The TSan target: queries streaming through the coordinator while updates
// fan out across every shard's engine underneath them. Every query must
// succeed against whichever per-shard epochs it pinned.
TEST(ShardedEngineTest, ConcurrentSearchAndUpdate) {
  ErdosRenyiOptions gen;
  gen.num_vertices = 120;
  gen.edge_prob = 0.06;
  gen.seed = 31;
  gen.keywords.domain_size = 12;
  Result<Graph> graph = MakeErdosRenyi(gen);
  ASSERT_TRUE(graph.ok());
  const Graph base = CopyGraph(*graph);

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.precompute = SweepPrecomputeOptions();
  options.engine.num_threads = 1;
  options.engine.enable_result_cache = true;
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::FromGraph(std::move(*graph), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  Rng rng(77);
  Query q;
  q.keywords = SampleQueryKeywords(base, rng, 2);
  ASSERT_FALSE(q.keywords.empty());
  q.k = 3;
  q.radius = 2;
  q.theta = 0.2;
  q.top_l = 3;

  constexpr int kUpdates = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<TopLResult> answer = (*sharded)->Search(q);
        if (!answer.ok()) failures.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  for (int u = 0; u < kUpdates; ++u) {
    // This thread is the only writer, so the coordinator snapshot cannot
    // change between drawing the delta and applying it.
    const std::shared_ptr<const EngineSnapshot> current =
        (*sharded)->snapshot();
    Rng update_rng(500 + u);
    const GraphDelta delta = MakeSweepDelta(*current->graph, update_rng, 4);
    Result<RebuildScope> scope = (*sharded)->ApplyUpdate(delta);
    ASSERT_TRUE(scope.ok()) << scope.status().ToString();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  const EngineStats stats = (*sharded)->Stats();
  EXPECT_EQ(stats.updates_applied, kUpdates);
  EXPECT_EQ(stats.snapshot_epoch, kUpdates);
  // Every search was routed somewhere.
  const std::vector<std::uint64_t> ops = (*sharded)->ShardOps();
  std::uint64_t routed = 0;
  for (std::uint64_t o : ops) routed += o;
  EXPECT_GT(routed, 0u);
}

}  // namespace
}  // namespace topl
