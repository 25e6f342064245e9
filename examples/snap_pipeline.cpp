// End-to-end SNAP pipeline: ingest a SNAP-format edge list (the format of
// com-DBLP / com-Amazon), attach synthetic attributes, persist the graph as
// a binary artifact, and serve queries through topl::Engine — the workflow
// for running this library against your own datasets. The first Engine::Open
// builds and persists the index; the second demonstrates a warm start that
// loads it, then answers a single query and a fanned-out batch.
//
//   $ ./example_snap_pipeline [edge_list.txt [workdir]]
//
// Without arguments, a demo edge list is generated first so the example is
// self-contained.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "topl.h"

namespace {

// Writes a small powerlaw-cluster graph in SNAP format for the demo path.
std::string WriteDemoEdgeList(const std::filesystem::path& dir) {
  topl::PowerlawClusterOptions options;
  options.num_vertices = 5000;
  options.seed = 5;
  topl::Result<topl::Graph> g = topl::MakePowerlawCluster(options);
  TOPL_CHECK(g.ok(), g.status().ToString().c_str());
  const std::string path = (dir / "demo.ungraph.txt").string();
  const topl::Status status = topl::WriteSnapEdgeList(*g, path);
  TOPL_CHECK(status.ok(), status.ToString().c_str());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topl;  // NOLINT(build/namespaces)

  const std::filesystem::path workdir =
      argc > 2 ? argv[2] : std::filesystem::temp_directory_path() / "topl_snap";
  std::filesystem::create_directories(workdir);
  const std::string edge_list =
      argc > 1 ? argv[1] : WriteDemoEdgeList(workdir);
  std::printf("edge list: %s\n", edge_list.c_str());

  // -- 1. Ingest -------------------------------------------------------------
  EdgeListLoadOptions load;
  load.assign_attributes = true;              // SNAP files carry no attributes
  load.keywords.domain_size = 50;             // paper's synthetic protocol
  load.keywords.keywords_per_vertex = 3;
  load.restrict_to_largest_component = true;  // Definition 1: connected G
  Result<Graph> graph = LoadSnapEdgeList(edge_list, load);
  if (!graph.ok()) {
    std::fprintf(stderr, "load failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded: %zu vertices, %zu edges (largest component)\n",
              graph->NumVertices(), graph->NumEdges());

  // -- 2. Persist the attributed graph ---------------------------------------
  const std::string graph_bin = (workdir / "graph.bin").string();
  Status status = WriteGraphBinary(*graph, graph_bin);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // -- 3. Offline phase (build + persist the index) --------------------------
  // With no index file on disk, Engine::Open runs the offline phase and —
  // because save_built_index defaults to true — persists it to index_path.
  EngineOptions engine_options;
  engine_options.graph_path = graph_bin;
  engine_options.index_path = (workdir / "index.bin").string();
  Timer offline;
  Result<std::unique_ptr<Engine>> cold = Engine::Open(engine_options);
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return 1;
  }
  std::printf("offline phase: %.2fs -> %s\n", offline.ElapsedSeconds(),
              engine_options.index_path.c_str());

  // -- 4. A later session: warm start from the persisted artifacts -----------
  Timer warm_start;
  Result<std::unique_ptr<Engine>> engine = Engine::Open(engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("warm start (load graph + index): %.2fs\n",
              warm_start.ElapsedSeconds());

  Query query;
  query.keywords = {1, 8, 21, 30, 44};
  query.k = 3;
  query.radius = 2;
  query.theta = 0.2;
  query.top_l = 3;
  Timer online;
  Result<TopLResult> answer = (*engine)->Search(query);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("query answered in %.4fs; %zu communities:\n",
              online.ElapsedSeconds(), answer->communities.size());
  for (std::size_t i = 0; i < answer->communities.size(); ++i) {
    const CommunityResult& c = answer->communities[i];
    std::printf("  #%zu center=%u members=%zu sigma=%.2f influenced=%zu\n",
                i + 1, c.community.center, c.community.size(), c.score(),
                c.influence.size());
  }

  // -- 5. Serving: a batch of queries fanned out over the engine's pool ------
  std::vector<Query> batch(4, query);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].top_l = 1 + static_cast<std::uint32_t>(i);
  }
  std::vector<Result<TopLResult>> batch_answers = (*engine)->SearchBatch(batch);
  std::size_t batch_ok = 0;
  for (const Result<TopLResult>& r : batch_answers) {
    if (r.ok()) ++batch_ok;
  }
  std::printf("batch of %zu: %zu ok\n", batch.size(), batch_ok);
  std::printf("engine stats: %s\n", (*engine)->Stats().ToString().c_str());
  return 0;
}
