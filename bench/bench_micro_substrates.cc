// Microbenchmarks of the substrates underneath TopL-ICDE: hop extraction,
// support counting, truss decomposition, MIA propagation, seed-community
// extraction, and the offline precompute throughput. Not a paper figure —
// these isolate where the query time of Figs. 2-3 goes, and anchor the
// ablation discussion in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace topl;         // NOLINT(build/namespaces)
using namespace topl::bench;  // NOLINT(build/namespaces)

const Workload& DefaultWorkload() {
  DatasetConfig config;
  config.kind = DatasetKind::kUni;
  config.num_vertices = DefaultVertices();
  return GetWorkload(config);
}

void BM_HopExtraction(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  HopExtractor extractor(w.graph);
  LocalGraph lg;
  VertexId v = 0;
  const std::uint32_t radius = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    extractor.Extract(v, radius, {}, &lg);
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
    benchmark::DoNotOptimize(lg.NumEdges());
  }
}
BENCHMARK(BM_HopExtraction)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_GlobalSupports(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto sup = ComputeGlobalEdgeSupports(w.graph);
    benchmark::DoNotOptimize(sup.data());
  }
}
BENCHMARK(BM_GlobalSupports)->Unit(benchmark::kMillisecond);

void BM_TrussDecomposition(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto trussness = TrussDecomposition(w.graph);
    benchmark::DoNotOptimize(trussness.data());
  }
}
BENCHMARK(BM_TrussDecomposition)->Unit(benchmark::kMillisecond);

void BM_CoreDecomposition(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  for (auto _ : state) {
    auto core = CoreDecomposition(w.graph);
    benchmark::DoNotOptimize(core.data());
  }
}
BENCHMARK(BM_CoreDecomposition)->Unit(benchmark::kMillisecond);

// Machine-independent cost of the propagations timed: vertices settled and
// heap entries sifted, per call.
void ReportPropagationWork(benchmark::State& state, double settled,
                           double sift_steps) {
  state.counters["settled_per_call"] =
      benchmark::Counter(settled, benchmark::Counter::kAvgIterations);
  state.counters["sift_steps_per_call"] =
      benchmark::Counter(sift_steps, benchmark::Counter::kAvgIterations);
}

void BM_Propagation(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  PropagationEngine engine(w.graph);
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  VertexId v = 0;
  double settled = 0.0;
  double sift_steps = 0.0;
  for (auto _ : state) {
    const VertexId seeds[1] = {v};
    auto result = engine.Compute(seeds, theta);
    benchmark::DoNotOptimize(result.score);
    settled += static_cast<double>(engine.last_settled());
    sift_steps += static_cast<double>(engine.last_sift_steps());
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
  }
  ReportPropagationWork(state, settled, sift_steps);
}
BENCHMARK(BM_Propagation)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMicrosecond);

// The offline precompute shape (Algorithm 2): the whole r-hop ball of a
// center seeds one propagation at θ_min. Balls are extracted up front so only
// the propagation is timed.
void BM_PropagationBall(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  const auto radius = static_cast<std::uint32_t>(state.range(0));
  const double theta_min = PrecomputeOptions().thetas.front();
  HopExtractor extractor(w.graph);
  LocalGraph lg;
  std::vector<std::vector<VertexId>> balls;
  VertexId v = 0;
  for (int i = 0; i < 64; ++i) {
    extractor.Extract(v, radius, {}, &lg);
    balls.push_back(lg.global_ids);
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
  }
  PropagationEngine engine(w.graph);
  std::size_t next = 0;
  double settled = 0.0;
  double sift_steps = 0.0;
  for (auto _ : state) {
    auto result = engine.Compute(balls[next], theta_min);
    benchmark::DoNotOptimize(result.score);
    settled += static_cast<double>(engine.last_settled());
    sift_steps += static_cast<double>(engine.last_sift_steps());
    next = (next + 1) % balls.size();
  }
  ReportPropagationWork(state, settled, sift_steps);
}
BENCHMARK(BM_PropagationBall)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Per call: centers the ego-net test rejected before the ball BFS, and
// centers that yielded a community.
void BM_SeedExtraction(benchmark::State& state) {
  const Workload& w = DefaultWorkload();
  SeedCommunityExtractor extractor(w.graph);
  const Query query = DefaultQuery();
  SeedCommunity community;
  VertexId v = 0;
  double ego_rejected = 0.0;
  double found = 0.0;
  for (auto _ : state) {
    found += extractor.Extract(v, query, &community) ? 1.0 : 0.0;
    ego_rejected += extractor.last_ego_rejected() ? 1.0 : 0.0;
    benchmark::DoNotOptimize(community.vertices.data());
    v = static_cast<VertexId>((v + 7919) % w.graph.NumVertices());
  }
  state.counters["ego_rejected_per_call"] =
      benchmark::Counter(ego_rejected, benchmark::Counter::kAvgIterations);
  state.counters["found_per_call"] =
      benchmark::Counter(found, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SeedExtraction)->Unit(benchmark::kMicrosecond);

void BM_PrecomputeThroughput(benchmark::State& state) {
  // Offline phase over a fresh small graph per iteration (not cached).
  SmallWorldOptions gen;
  gen.num_vertices = 2000;
  Result<Graph> g = MakeSmallWorld(gen);
  TOPL_CHECK(g.ok(), g.status().ToString().c_str());
  PrecomputeOptions opts;
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Result<PrecomputedData> pre = PrecomputedData::Build(*g, opts);
    TOPL_CHECK(pre.ok(), pre.status().ToString().c_str());
    benchmark::DoNotOptimize(pre->num_vertices());
  }
  state.counters["vertices_per_s"] = benchmark::Counter(
      static_cast<double>(g->NumVertices()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrecomputeThroughput)->Arg(1)->Arg(4)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
