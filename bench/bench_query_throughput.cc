// End-to-end engine serving throughput (not a paper figure): the same mixed
// keyword workload is pushed through
//   (a) a single TopLDetector in a plain sequential loop — the pre-Engine
//       baseline every caller used to hand-roll, and
//   (b) one shared topl::Engine via SearchBatch at increasing worker counts.
// Aggregate queries/second is reported for each, so the engine's batching
// overhead (context leasing, stats accounting, pool fan-out) is directly
// comparable against the raw detector loop on identical queries.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace topl;         // NOLINT(build/namespaces)
using namespace topl::bench;  // NOLINT(build/namespaces)

constexpr std::size_t kQueriesPerRound = 32;

std::vector<Query> MakeWorkloadQueries(const Workload& w) {
  std::vector<Query> queries;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Query q;
    q.keywords = MakeQueryKeywordsFromGraph(w.graph, 5, seed);
    q.k = 4;
    q.radius = 2;
    q.theta = 0.2;
    q.top_l = 5;
    queries.push_back(std::move(q));
  }
  return queries;
}

// The full round's query list: kQueriesPerRound entries cycling through the
// distinct keyword sets, identical for every contender.
std::vector<Query> MakeRound(const Workload& w) {
  const std::vector<Query> base = MakeWorkloadQueries(w);
  std::vector<Query> round;
  round.reserve(kQueriesPerRound);
  for (std::size_t i = 0; i < kQueriesPerRound; ++i) {
    round.push_back(base[i % base.size()]);
  }
  return round;
}

// One lazily-built engine per (dataset, thread count), shared across
// iterations like a long-running server (per-worker detectors live across
// rounds).
Engine& GetEngine(const DatasetConfig& config, std::size_t num_threads) {
  using EngineKey = std::pair<decltype(config.Key()), std::size_t>;
  static std::map<EngineKey, std::unique_ptr<Engine>>* engines =
      new std::map<EngineKey, std::unique_ptr<Engine>>();
  const EngineKey key{config.Key(), num_threads};
  auto it = engines->find(key);
  if (it != engines->end()) return *it->second;

  const Workload& w = GetWorkload(config);
  auto pre = std::make_unique<PrecomputedData>(*w.pre);
  Result<TreeIndex> tree = TreeIndex::Build(w.graph, *pre);
  TOPL_CHECK(tree.ok(), tree.status().ToString().c_str());
  EngineOptions options;
  options.num_threads = num_threads;
  // Workload graphs are cached for the whole process; the engine needs its
  // own Graph, so rebuild the same deterministic dataset.
  Result<std::unique_ptr<Engine>> engine = Engine::Create(
      BuildGraph(config), std::move(pre), std::move(tree).value(), options);
  TOPL_CHECK(engine.ok(), engine.status().ToString().c_str());
  auto [pos, inserted] = engines->emplace(key, std::move(engine).value());
  return *pos->second;
}

void BM_SingleDetectorLoop(benchmark::State& state, DatasetConfig config) {
  const Workload& w = GetWorkload(config);
  const std::vector<Query> round = MakeRound(w);
  TopLDetector detector(w.graph, *w.pre, w.tree);

  std::uint64_t answered = 0;
  for (auto _ : state) {
    for (const Query& query : round) {
      Result<TopLResult> result = detector.Search(query);
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      benchmark::DoNotOptimize(result->communities.data());
    }
    answered += round.size();
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}

void BM_EngineSearchBatch(benchmark::State& state, DatasetConfig config) {
  const std::size_t num_threads = static_cast<std::size_t>(state.range(0));
  Engine& engine = GetEngine(config, num_threads);
  const std::vector<Query> round = MakeRound(GetWorkload(config));

  std::uint64_t answered = 0;
  for (auto _ : state) {
    std::vector<Result<TopLResult>> results = engine.SearchBatch(round);
    for (const Result<TopLResult>& result : results) {
      TOPL_CHECK(result.ok(), result.status().ToString().c_str());
      benchmark::DoNotOptimize(result->communities.data());
    }
    answered += round.size();
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== TopL-ICDE serving throughput: single detector loop vs "
              "Engine::SearchBatch ==\n");
  DatasetConfig config;
  config.kind = DatasetKind::kUni;
  config.num_vertices = DefaultVertices();

  benchmark::RegisterBenchmark(
      "throughput/single_detector_loop",
      [config](benchmark::State& s) { BM_SingleDetectorLoop(s, config); })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.2)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "throughput/engine_batch/threads",
      [config](benchmark::State& s) { BM_EngineSearchBatch(s, config); })
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.2)
      ->UseRealTime();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
