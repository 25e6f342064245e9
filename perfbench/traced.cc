// The traced run: the workload's live phase with every other query traced
// (the p50 difference of the two halves is the tracing overhead), then a
// single-threaded replay of a fixed prefix of the op stream on a fresh
// engine, timing calls into each layer's public functions around every op.
// Per-layer metrics come from the spans; work counters come from the replay
// only, so they repeat exactly for a given seed.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/thread_pool.h"
#include "core/seed_community.h"
#include "graph/local_subgraph.h"
#include "index/index_update.h"
#include "influence/propagation.h"
#include "live.h"
#include "report.h"
#include "runs.h"
#include "samples.h"
#include "storage/update_journal.h"

namespace perfbench {
namespace {

using namespace topl;  // NOLINT(build/namespaces)

constexpr std::uint64_t kAllOps = std::numeric_limits<std::uint64_t>::max();

/// Work counters of the replay's first pass over the query prefix.
struct QueryCounters {
  std::uint64_t queries = 0;
  QueryStats stats;  // summed detector counters
  std::uint64_t progressive = 0;
  std::uint64_t waves = 0;            // engine progressive queries
  std::uint64_t parallel_chunks = 0;  // engine progressive queries
  std::uint64_t propagations = 0;
  std::uint64_t reach = 0;  // influenced vertices over all propagations
};

/// Work counters of the replay's probed updates.
struct UpdateCounters {
  std::uint64_t probed = 0;
  std::uint64_t dirty_centers = 0;
  std::uint64_t influence_frontier = 0;
  std::uint64_t journal_bytes = 0;
  double precompute_avoided = 0.0;
};

/// Scratch of the query-path layers over one snapshot's graph.
struct LayerProbes {
  explicit LayerProbes(const Graph& g) : hop(g), extractor(g), propagation(g) {}
  HopExtractor hop;
  SeedCommunityExtractor extractor;
  PropagationEngine propagation;
  LocalGraph ball;
  SeedCommunity seed;
};

bool Diverged(const char* what, std::uint64_t op) {
  std::fprintf(stderr, "DIVERGENCE: %s (op %llu)\n", what,
               static_cast<unsigned long long>(op));
  return false;
}

/// Replays `ops` sequentially: each engine answer must equal a private
/// detector's on the same snapshot (for a cache hit, the snapshot it was
/// served from). With `probe_layers`, every answer community is also
/// re-derived through HopExtractor::Extract → SeedCommunityExtractor::Verify
/// → PropagationEngine::Compute and must match, and counters are summed.
bool ReplayQueries(Engine& engine, const std::vector<loadgen::Operation>& ops,
                   std::uint64_t id_base, bool probe_layers, SpanThread* t,
                   QueryCounters* c) {
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<LayerProbes> probes;
  for (const loadgen::Operation& op : ops) {
    const std::shared_ptr<const EngineSnapshot> snap = engine.snapshot();
    if (oracle == nullptr || oracle->snapshot().epoch != snap->epoch) {
      probes.reset();
      oracle = std::make_unique<Oracle>(snap);
      probes = std::make_unique<LayerProbes>(*snap->graph);
    }
    const std::uint64_t id = id_base + op.index;
    SpanThread::Scope op_span(t, OpSpanName(op.kind), id);
    Answer got;
    QueryStats engine_stats;
    if (!RunOnEngine(engine, op, &got, &engine_stats, t, id)) {
      return Diverged("engine query failed", id);
    }
    Answer expected;
    QueryStats stats;
    std::vector<CommunityResult> communities;
    bool ok = false;
    {
      SpanThread::Scope span(t, "core.detector", id);
      ok = oracle->Run(op, &expected, &stats, &communities);
    }
    if (!ok || !(got == expected)) {
      return Diverged("engine answer differs from the detector", id);
    }
    if (!probe_layers) continue;

    ++c->queries;
    c->stats += stats;
    if (op.kind == OpKind::kProgressive) {
      ++c->progressive;
      c->waves += engine_stats.waves;
      c->parallel_chunks += engine_stats.parallel_chunks;
    }
    for (const CommunityResult& community : communities) {
      const VertexId center = community.community.center;
      {
        SpanThread::Scope span(t, "graph.ball_extract", id);
        ok = probes->hop.Extract(center, op.query.radius, op.query.keywords,
                                 &probes->ball);
      }
      if (!ok) return Diverged("answer center fails its own ball", id);
      {
        SpanThread::Scope span(t, "truss.verify", id);
        ok = probes->extractor.Verify(probes->ball, op.query,
                                      SeedCommunityExtractor::Mode::kIncremental,
                                      &probes->seed);
      }
      if (!ok || probes->seed.vertices != community.community.vertices) {
        return Diverged("verified seed community differs from the answer", id);
      }
      InfluencedCommunity influenced;
      {
        SpanThread::Scope span(t, "influence.propagate", id);
        influenced = probes->propagation.Compute(community.community.vertices,
                                                 op.query.theta);
      }
      if (Bits(influenced.score) != Bits(community.score())) {
        return Diverged("propagated score differs from the answer", id);
      }
      ++c->propagations;
      c->reach += influenced.size();
    }
  }
  return true;
}

/// Applies `total` deltas of the seeded update stream to `replay`, one at a
/// time. The first `probed` are also run through the maintenance layers
/// (ApplyDelta, DirtyCenters, IndexUpdater::Apply, PatchTree, journal
/// append) and must agree with what ApplyUpdate did. The first
/// `live_deltas.size()` must equal the deltas the live engine applied, and
/// once they are all applied the replay must answer `probes` as `live` does.
bool ReplayUpdates(Engine& replay, std::uint64_t seed, std::size_t total,
                   std::size_t probed, const std::vector<GraphDelta>& live_deltas,
                   Engine& live, const std::vector<loadgen::Operation>& probes,
                   ThreadPool* pool, UpdateJournal* journal, SpanThread* t,
                   UpdateCounters* c) {
  std::uint64_t stream_index = 0;
  for (std::size_t j = 0; j < total; ++j) {
    const std::uint64_t id = kReplayUpdateOps + j;
    const std::shared_ptr<const EngineSnapshot> snap = replay.snapshot();
    const GraphDelta delta = NextDelta(*snap->graph, seed, &stream_index);
    if (delta.empty()) return Diverged("update stream ran dry", id);
    if (j < live_deltas.size() && UpdateJournal::EncodeDelta(delta) !=
                                      UpdateJournal::EncodeDelta(live_deltas[j])) {
      return Diverged("replayed delta differs from the live engine's", id);
    }
    SpanThread::Scope op_span(t, "op.update", id);
    std::size_t expected_dirty = std::numeric_limits<std::size_t>::max();
    if (j < probed) {
      Result<Graph> updated = [&] {
        SpanThread::Scope span(t, "graph.apply_delta", id);
        return ApplyDelta(*snap->graph, delta);
      }();
      if (!updated.ok()) return Diverged("ApplyDelta failed", id);
      std::size_t frontier = 0;
      const std::vector<VertexId> dirty = [&] {
        SpanThread::Scope span(t, "index.dirty_region", id);
        return IndexUpdater::DirtyCenters(*snap->graph, *updated, delta,
                                          snap->pre->r_max(),
                                          snap->pre->thetas().front(), &frontier);
      }();
      Result<UpdatedIndex> maintained = [&] {
        SpanThread::Scope span(t, "index.updater_apply", id);
        return IndexUpdater::Apply(*snap->graph, *snap->pre, *snap->tree, delta,
                                   pool);
      }();
      if (!maintained.ok() || maintained->dirty_center_ids != dirty) {
        return Diverged("IndexUpdater::Apply disagrees with DirtyCenters", id);
      }
      std::vector<char> mask(snap->graph->NumVertices(), 0);
      for (VertexId v : dirty) mask[v] = 1;
      TreeIndex patched;
      {
        SpanThread::Scope span(t, "index.tree_patch", id);
        IndexUpdater::PatchTree(*snap->tree, maintained->pre.get(), mask, &patched);
      }
      const std::uintmax_t before = std::filesystem::file_size(journal->path());
      Status appended;
      {
        SpanThread::Scope span(t, "storage.journal_append", id);
        appended = journal->Append(delta);
      }
      if (!appended.ok()) return Diverged("journal append failed", id);
      c->journal_bytes += std::filesystem::file_size(journal->path()) - before;
      ++c->probed;
      c->dirty_centers += dirty.size();
      c->influence_frontier += frontier;
      c->precompute_avoided += maintained->scope.precompute_avoided();
      expected_dirty = dirty.size();
    }
    Result<RebuildScope> scope = [&] {
      SpanThread::Scope span(t, "engine.apply_update", id);
      return replay.ApplyUpdate(delta);
    }();
    if (!scope.ok() || (j < probed && scope->dirty_centers != expected_dirty)) {
      return Diverged("ApplyUpdate disagrees with the maintenance layers", id);
    }
    if (j + 1 == live_deltas.size()) {
      std::vector<Answer> replayed;
      std::vector<Answer> served;
      if (!ProbeAnswers(replay, probes, &replayed) ||
          !ProbeAnswers(live, probes, &served) || replayed != served) {
        return Diverged("sequential replay differs from the live engine", id);
      }
    }
  }
  return true;
}

double MedianOf(const std::vector<double>& v) { return PercentileOf(v, 50).value; }

double PerUnit(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

int RunTraced(const RunArgs& args) {
  const Workload& w = *args.workload;
  Result<Graph> graph = MakeGraph(w, args.seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  SpanRecorder recorder;
  SpanThread* main_thread = recorder.NewThread();

  const std::string artifact = args.scratch + "/base.bin";
  const std::string journal = w.journal ? args.scratch + "/live.journal" : "";
  SetupTimes setup;
  Result<std::unique_ptr<Engine>> served =
      Serve(*graph, w, artifact, journal, main_thread, &setup);
  if (!served.ok()) {
    std::fprintf(stderr, "setup: %s\n", served.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Engine> engine = std::move(served).value();
  Result<loadgen::WorkloadGenerator> generator =
      loadgen::WorkloadGenerator::Create(MakeSpec(w, args.seed), *graph);
  if (!generator.ok()) {
    std::fprintf(stderr, "workload: %s\n", generator.status().ToString().c_str());
    return 2;
  }

  // Live: warm-up, then the measured window with every other query traced.
  LiveState state;
  const LiveResult warm =
      WarmUp(*engine, *generator, w, args.seed, &state, main_thread);
  LivePhase phase;
  phase.seconds = args.seconds;
  phase.run_updater = true;
  phase.spans = &recorder;
  const LiveResult live = RunLive(*engine, *generator, w, args.seed, &state, phase);
  const EngineStats live_stats = engine->Stats();

  // Replay on a fresh engine over the same base artifact.
  std::uint64_t attempted = warm.attempted + live.attempted;
  std::uint64_t failed = warm.failed + live.failed;
  bool correct = failed == 0;
  const std::vector<loadgen::Operation> prefix =
      QueryPrefix(*generator, kReplayQueries);
  const std::vector<loadgen::Operation> probes = QueryPrefix(*generator, 8);
  QueryCounters qc;
  UpdateCounters uc;
  {
    Result<std::unique_ptr<Engine>> replay = Engine::Open(ServingOptions(
        w, artifact, w.journal ? args.scratch + "/replay.journal" : ""));
    Result<std::unique_ptr<UpdateJournal>> probe_journal =
        UpdateJournal::Open(args.scratch + "/probe.journal");
    if (!replay.ok() || !probe_journal.ok()) {
      std::fprintf(stderr, "replay setup failed\n");
      return 2;
    }
    ThreadPool pool(kEngineThreads);
    const std::size_t total_updates =
        std::max(w.replay_updates, state.updater_deltas.size());
    correct = correct &&
              ReplayQueries(**replay, prefix, kReplayOps, true, main_thread, &qc) &&
              ReplayUpdates(**replay, args.seed, total_updates, w.replay_updates,
                            state.updater_deltas, *engine,
                            probes, &pool, probe_journal->get(), main_thread, &uc) &&
              ReplayQueries(**replay, prefix, kReplayAfterUpdateOps, false,
                            main_thread, &qc);
    attempted += 2 * prefix.size() + total_updates;
  }
  if (correct && w.journal) {
    correct = CheckRebuildAndRecover(&engine, w, probes, artifact, journal,
                                     state.updater_deltas.size(), args.scratch);
  }

  // Per-layer metrics.
  auto span_median = [&](const char* name, std::uint64_t lo, std::uint64_t hi) {
    return MedianOf(recorder.DurationsUs(name, lo, hi));
  };
  const std::uint64_t replay_updates_end = kReplayUpdateOps + w.replay_updates;
  auto update_ms = [&](const char* name) {
    return span_median(name, kReplayUpdateOps, replay_updates_end) / 1e3;
  };
  std::vector<double> row_recompute_ms;
  {
    const auto apply = recorder.DurationByOp("index.updater_apply", kReplayUpdateOps,
                                             replay_updates_end);
    const auto delta = recorder.DurationByOp("graph.apply_delta", kReplayUpdateOps,
                                             replay_updates_end);
    const auto dirty = recorder.DurationByOp("index.dirty_region", kReplayUpdateOps,
                                             replay_updates_end);
    const auto patch = recorder.DurationByOp("index.tree_patch", kReplayUpdateOps,
                                             replay_updates_end);
    for (const auto& [op, us] : apply) {
      row_recompute_ms.push_back(
          (us - delta.at(op) - dirty.at(op) - patch.at(op)) / 1e3);
    }
  }
  std::vector<double> overhead_ms;
  {
    const auto detector = recorder.DurationByOp("core.detector", kReplayOps, kAllOps);
    for (const char* name : {"engine.search", "engine.search_diversified"}) {
      for (const auto& [op, us] : recorder.DurationByOp(name, kReplayOps, kAllOps)) {
        overhead_ms.push_back((us - detector.at(op)) / 1e3);
      }
    }
  }
  const double uncontended_update_ms =
      span_median("engine.apply_update", kReplayUpdateOps, kAllOps) / 1e3;
  const std::vector<double> live_updates =
      recorder.DurationsUs("engine.apply_update", 0, kReplayOps);
  const double lookups = static_cast<double>(
      live_stats.cache_hits + live_stats.cache_misses + live_stats.cache_coalesced);
  const QueryStats& s = qc.stats;
  const double queries = static_cast<double>(qc.queries);

  Report report;
  std::vector<std::pair<std::string, double>> counters;
  auto counter = [&](const std::string& name, double value, const std::string& unit) {
    report.Add(name, value, unit);
    counters.emplace_back(name, value);
  };
  report.Add("index.precompute_s", setup.precompute_s, "s");
  report.Add("index.tree_build_s", setup.tree_build_s, "s");
  report.Add("storage.artifact_write_s", setup.artifact_write_s, "s");
  counter("storage.artifact_mb", static_cast<double>(setup.artifact_bytes) / (1 << 20),
          "MB");
  report.Add("storage.open_s", setup.open_s, "s");
  report.Add("storage.journal_append_ms", update_ms("storage.journal_append"), "ms");
  counter("storage.journal_bytes_per_update",
          PerUnit(static_cast<double>(uc.journal_bytes), uc.probed), "bytes");
  report.Add("index.dirty_region_ms", update_ms("index.dirty_region"), "ms");
  report.Add("index.updater_apply_ms", update_ms("index.updater_apply"), "ms");
  report.Add("index.tree_patch_ms", update_ms("index.tree_patch"), "ms");
  report.Add("index.row_recompute_ms", MedianOf(row_recompute_ms), "ms",
             row_recompute_ms.size());
  counter("index.dirty_centers_per_update",
          PerUnit(static_cast<double>(uc.dirty_centers), uc.probed), "count");
  counter("index.influence_frontier_per_update",
          PerUnit(static_cast<double>(uc.influence_frontier), uc.probed), "count");
  counter("index.precompute_avoided", PerUnit(uc.precompute_avoided, uc.probed),
          "ratio");
  report.Add("graph.apply_delta_ms", update_ms("graph.apply_delta"), "ms");
  report.Add("graph.ball_extract_us",
             span_median("graph.ball_extract", kReplayOps, kAllOps), "us",
             qc.propagations);
  report.Add("truss.verify_us", span_median("truss.verify", kReplayOps, kAllOps), "us",
             qc.propagations);
  counter("truss.triangles_per_query",
          PerUnit(static_cast<double>(s.triangles_inspected), qc.queries), "count");
  counter("truss.recomputes_avoided_per_query",
          PerUnit(static_cast<double>(s.support_recomputes_avoided), qc.queries),
          "count");
  report.Add("influence.propagate_us",
             span_median("influence.propagate", kReplayOps, kAllOps), "us",
             qc.propagations);
  counter("influence.reach_per_propagation",
          PerUnit(static_cast<double>(qc.reach), qc.propagations), "count");
  report.Add("core.detector_p50_ms",
             span_median("core.detector", kReplayOps, kAllOps) / 1e3, "ms",
             2 * qc.queries);
  counter("core.heap_pops_per_query", static_cast<double>(s.heap_pops) / queries,
          "count");
  counter("index.nodes_visited_per_query",
          static_cast<double>(s.index_nodes_visited) / queries, "count");
  counter("core.candidates_refined_per_query",
          static_cast<double>(s.candidates_refined) / queries, "count");
  counter("core.found_ratio",
          PerUnit(static_cast<double>(s.communities_found), s.candidates_refined),
          "ratio");
  counter("core.pruned_keyword_per_query",
          static_cast<double>(s.pruned_keyword) / queries, "count");
  counter("core.pruned_support_per_query",
          static_cast<double>(s.pruned_support) / queries, "count");
  counter("core.pruned_score_per_query", static_cast<double>(s.pruned_score) / queries,
          "count");
  counter("core.pruned_termination_per_query",
          static_cast<double>(s.pruned_termination) / queries, "count");
  counter("core.waves_per_query",
          PerUnit(static_cast<double>(qc.waves), qc.progressive), "count");
  counter("core.parallel_chunks_per_query",
          PerUnit(static_cast<double>(qc.parallel_chunks), qc.progressive), "count");
  report.Add("engine.overhead_p50_ms", MedianOf(overhead_ms), "ms", overhead_ms.size());
  report.Add("engine.update_uncontended_p50_ms", uncontended_update_ms, "ms");
  report.Add("engine.update_contention_ratio",
             live_updates.empty() ? 0.0
                                  : MedianOf(live_updates) / 1e3 / uncontended_update_ms,
             "ratio", live_updates.size());
  report.Add("engine.live_snapshots_max",
             static_cast<double>(std::max(state.live_snapshots_max,
                                          live_stats.live_snapshots)),
             "count");
  report.Add("engine.retired_contexts_per_update",
             PerUnit(static_cast<double>(live_stats.retired_contexts),
                     live_stats.updates_applied),
             "count");
  report.Add("cache.hit_rate",
             lookups == 0 ? 0.0 : static_cast<double>(live_stats.cache_hits) / lookups,
             "ratio");
  report.Add("cache.coalesced_per_query",
             lookups == 0 ? 0.0
                          : static_cast<double>(live_stats.cache_coalesced) / lookups,
             "ratio");
  report.Add("cache.invalidated_per_update",
             PerUnit(static_cast<double>(live_stats.cache_invalidated),
                     live_stats.updates_applied),
             "count");
  report.Add("cache.evicted", static_cast<double>(live_stats.cache_evicted), "count");
  report.Add("cache.resident_mb",
             static_cast<double>(live_stats.cache_bytes) / (1 << 20), "MB");
  report.Add("trace.overhead_ms",
             MedianOf(live.traced_query_ms) - MedianOf(live.untraced_query_ms), "ms",
             live.traced_query_ms.size());
  const std::map<std::string, double> self_ms = recorder.SelfMsByLayer(kReplayOps);
  for (const char* layer :
       {"engine", "core", "graph", "truss", "influence", "index", "storage"}) {
    const auto it = self_ms.find(layer);
    report.Add(std::string(layer) + ".self_ms", it == self_ms.end() ? 0.0 : it->second,
               "ms");
  }

  std::string extra = "\"workload\": \"" + w.name + "\", \"seed\": " +
                      std::to_string(args.seed) + ", \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", counters[i].second);
    extra += (i == 0 ? "\"" : ", \"") + counters[i].first + "\": " + value;
  }
  extra += "}";
  const std::string trace_path =
      args.out_dir + "/trace-" + w.name + "-seed" + std::to_string(args.seed) + ".json";
  if (!recorder.WriteJson(trace_path, extra)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 2;
  }
  std::printf("== %s seed=%llu traced: spans and counters in %s ==\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), trace_path.c_str());
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
