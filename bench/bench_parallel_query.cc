// bench_parallel_query — single-query latency of the staged TopL pipeline:
// the classic sequential detector loop vs intra-query parallel scoring
// (Engine::SearchProgressive) at increasing worker counts, on one fixed-seed
// synthetic graph.
//
// Every parallel run's answers are compared field-by-field (centers, member
// lists, influenced vertices, cpp values, scores) against the sequential
// answers: the pipeline contract is that parallelism changes wall-clock,
// never results, and this benchmark doubles as the enforcement point — it
// exits non-zero on any mismatch.
//
//   bench_parallel_query [--vertices=8000] [--seed=42] [--rmax=2]
//                        [--queries=8] [--repeat=3] [--chunk=8]
//                        [--threads=1,2,4,8] [--json=BENCH_parallel_query.json]
//
// Emits a human summary on stdout and a machine-readable JSON file
// (per-thread-count latency, throughput, speedup, work efficiency, plus
// progressive time-to-first-result) consumed by the CI regression gate.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "topl.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

struct Flags {
  std::size_t vertices = 8000;
  std::uint64_t seed = 42;
  std::uint32_t rmax = 2;
  std::size_t num_queries = 8;
  int repeat = 3;
  std::uint32_t chunk = 8;
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  std::string json = "BENCH_parallel_query.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "vertices") {
      flags.vertices = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seed") {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "rmax") {
      flags.rmax = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "queries") {
      flags.num_queries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "repeat") {
      flags.repeat = std::atoi(value.c_str());
    } else if (key == "chunk") {
      flags.chunk = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "json") {
      flags.json = value;
    } else if (key == "threads") {
      flags.threads.clear();
      std::size_t pos = 0;
      while (pos < value.size()) {
        flags.threads.push_back(std::strtoull(value.c_str() + pos, nullptr, 10));
        const std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      std::exit(2);
    }
  }
  return flags;
}

// Population-weighted query keywords (uniform domain draws often match
// nobody), deterministic per seed; mirrors bench_common.h.
std::vector<KeywordId> QueryKeywords(const Graph& g, std::uint32_t count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KeywordId> out;
  for (int guard = 0; out.size() < count && guard < 100000; ++guard) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto kws = g.Keywords(v);
    if (kws.empty()) continue;
    const KeywordId w = kws[rng.NextBounded(kws.size())];
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameCommunities(const std::vector<CommunityResult>& a,
                     const std::vector<CommunityResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].community.center != b[i].community.center ||
        a[i].community.vertices != b[i].community.vertices ||
        a[i].influence.vertices != b[i].influence.vertices ||
        a[i].influence.cpp != b[i].influence.cpp ||
        a[i].score() != b[i].score()) {
      return false;
    }
  }
  return true;
}

struct RunResult {
  std::size_t threads = 0;
  double total_seconds = 0.0;  // best-of-repeat sum over the query set
  double queries_per_s = 0.0;
  double speedup = 1.0;
  std::uint64_t candidates_refined = 0;
  std::uint64_t propagations_avoided = 0;
  bool exact_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  std::printf("== parallel single-query scoring: sequential detector vs "
              "intra-query chunked refinement ==\n");
  SmallWorldOptions gen;
  gen.num_vertices = flags.vertices;
  gen.seed = flags.seed;
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  Result<Graph> graph = MakeSmallWorld(gen);
  TOPL_CHECK(graph.ok(), graph.status().ToString().c_str());

  Timer offline;
  PrecomputeOptions pre_opts;
  pre_opts.r_max = flags.rmax;
  Result<PrecomputedData> pre_built = PrecomputedData::Build(*graph, pre_opts);
  TOPL_CHECK(pre_built.ok(), pre_built.status().ToString().c_str());
  auto pre = std::make_unique<PrecomputedData>(std::move(pre_built).value());
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
  std::printf("graph: %zu vertices, %zu edges; offline %.2fs\n",
              graph->NumVertices(), graph->NumEdges(), offline.ElapsedSeconds());

  std::vector<Query> queries;
  for (std::size_t i = 0; i < flags.num_queries; ++i) {
    Query q;
    q.keywords = QueryKeywords(*graph, 5, flags.seed + i + 1);
    q.k = 4;
    q.radius = std::min<std::uint32_t>(2, flags.rmax);
    q.theta = 0.2;
    q.top_l = 5;
    queries.push_back(std::move(q));
  }

  // Sequential reference: the classic one-candidate-at-a-time loop on a bare
  // detector — the tightest-pruning, zero-overhead baseline.
  TopLDetector reference(*graph, *pre, *tree);
  std::vector<TopLResult> expected(queries.size());
  RunResult sequential;
  sequential.threads = 1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    double best = 0.0;
    for (int rep = 0; rep < flags.repeat; ++rep) {
      Timer timer;
      Result<TopLResult> result = reference.Search(queries[i]);
      const double elapsed = timer.ElapsedSeconds();
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      if (rep == 0 || elapsed < best) best = elapsed;
      if (rep == 0) expected[i] = std::move(result).value();
    }
    sequential.total_seconds += best;
    sequential.candidates_refined += expected[i].stats.candidates_refined;
    sequential.propagations_avoided += expected[i].stats.propagations_avoided;
  }
  sequential.queries_per_s =
      static_cast<double>(queries.size()) / sequential.total_seconds;
  std::printf("%8s %12s %12s %9s %9s %9s %8s\n", "threads", "total(s)", "qps",
              "speedup", "refined", "avoided", "exact");
  std::printf("%8s %12.4f %12.1f %9s %9llu %9llu %8s\n", "seq",
              sequential.total_seconds, sequential.queries_per_s, "1.00x",
              static_cast<unsigned long long>(sequential.candidates_refined),
              static_cast<unsigned long long>(sequential.propagations_avoided),
              "ref");

  // Parallel runs: one engine per thread count, queries served one at a time
  // through the progressive path (intra-query chunk fan-out, no deadline).
  std::vector<RunResult> runs;
  bool all_exact = true;
  double first_update_seconds = -1.0;
  for (std::size_t threads : flags.threads) {
    auto pre_copy = std::make_unique<PrecomputedData>(*pre);
    Result<TreeIndex> tree_copy = TreeIndex::Build(*graph, *pre_copy);
    TOPL_CHECK(tree_copy.ok(), tree_copy.status().ToString().c_str());
    Result<Graph> graph_copy = MakeSmallWorld(gen);
    TOPL_CHECK(graph_copy.ok(), graph_copy.status().ToString().c_str());
    EngineOptions engine_opts;
    engine_opts.num_threads = threads;
    Result<std::unique_ptr<Engine>> engine =
        Engine::Create(std::move(graph_copy).value(), std::move(pre_copy),
                       std::move(tree_copy).value(), engine_opts);
    TOPL_CHECK(engine.ok(), engine.status().ToString().c_str());

    ProgressiveOptions prog;
    prog.parallel = true;
    prog.chunk_size = flags.chunk;

    RunResult run;
    run.threads = threads;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      double best = 0.0;
      for (int rep = 0; rep < flags.repeat; ++rep) {
        Timer timer;
        Result<TopLResult> result = (*engine)->SearchProgressive(queries[i], prog);
        const double elapsed = timer.ElapsedSeconds();
        TOPL_CHECK(result.ok(), result.status().ToString().c_str());
        if (rep == 0 || elapsed < best) best = elapsed;
        if (rep == 0) {
          run.candidates_refined += result->stats.candidates_refined;
          run.propagations_avoided += result->stats.propagations_avoided;
          if (!SameCommunities(result->communities, expected[i].communities) ||
              result->truncated) {
            run.exact_match = false;
            all_exact = false;
            std::fprintf(stderr,
                         "MISMATCH: query %zu at %zu threads differs from the "
                         "sequential answer\n",
                         i, threads);
          }
        }
      }
      run.total_seconds += best;
    }
    run.queries_per_s = static_cast<double>(queries.size()) / run.total_seconds;
    run.speedup = sequential.total_seconds / run.total_seconds;
    std::printf("%8zu %12.4f %12.1f %8.2fx %9llu %9llu %8s\n", threads,
                run.total_seconds, run.queries_per_s, run.speedup,
                static_cast<unsigned long long>(run.candidates_refined),
                static_cast<unsigned long long>(run.propagations_avoided),
                run.exact_match ? "yes" : "NO");
    runs.push_back(run);

    // Anytime responsiveness at the widest configuration: wall-clock until
    // the first progressive update lands vs the full query.
    if (threads == flags.threads.back()) {
      Timer timer;
      double first = -1.0;
      Result<TopLResult> result = (*engine)->SearchProgressive(
          queries.front(), prog, [&](const ProgressiveUpdate&) {
            if (first < 0.0) first = timer.ElapsedSeconds();
            return true;
          });
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      first_update_seconds = first;
    }
  }

  std::FILE* json = std::fopen(flags.json.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"benchmark\": \"parallel_query\",\n"
               "  \"vertices\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"num_queries\": %zu,\n"
               "  \"exact_match\": %s,\n"
               "  \"sequential\": {\"total_seconds\": %.6f, \"queries_per_s\": "
               "%.3f, \"candidates_refined\": %llu, "
               "\"propagations_avoided\": %llu},\n"
               "  \"first_update_seconds\": %.6f,\n"
               "  \"runs\": [\n",
               flags.vertices, static_cast<unsigned long long>(flags.seed),
               queries.size(), all_exact ? "true" : "false",
               sequential.total_seconds, sequential.queries_per_s,
               static_cast<unsigned long long>(sequential.candidates_refined),
               static_cast<unsigned long long>(sequential.propagations_avoided),
               first_update_seconds);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %zu, \"total_seconds\": %.6f, "
                 "\"queries_per_s\": %.3f, \"speedup\": %.3f, "
                 "\"candidates_refined\": %llu, \"propagations_avoided\": %llu, "
                 "\"exact_match\": %s}%s\n",
                 runs[i].threads, runs[i].total_seconds, runs[i].queries_per_s,
                 runs[i].speedup,
                 static_cast<unsigned long long>(runs[i].candidates_refined),
                 static_cast<unsigned long long>(runs[i].propagations_avoided),
                 runs[i].exact_match ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", flags.json.c_str());
  return all_exact ? 0 : 1;
}
