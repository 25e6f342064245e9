#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "index/precompute.h"
#include "index/tree_index.h"
#include "storage/artifact.h"

namespace perfbench {
namespace {

using namespace topl;  // NOLINT(build/namespaces)

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AddCommunities(const std::vector<CommunityResult>& communities, Answer* a) {
  for (const CommunityResult& c : communities) {
    a->centers.push_back(c.community.center);
    a->score_bits.push_back(Bits(c.score()));
    a->members.insert(a->members.end(), c.community.vertices.begin(),
                      c.community.vertices.end());
    a->members.push_back(kInvalidVertex);  // separator
  }
}

// Without a cache, repeating a key buys nothing, and a small pool makes a
// run's cost depend on which few hundred keyword sets the seed drew: over 256
// signatures ~9 ops share each one, and the share of queries that end at the
// index root (~1/3, each ~10 µs) sets the rank at which the p50 lands among
// the heavy ones. With more signatures than a run has ops, every op draws
// afresh.
constexpr std::uint32_t kReadSignatures = 4096;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  Workload cold;
  cold.name = "cold_read";
  cold.vertices = 30000;
  cold.mix = {0.6, 0.2, 0.2, 0.0};
  cold.signatures = kReadSignatures;
  cold.checked_ops = 96;
  cold.replay_updates = 2;
  out.push_back(cold);

  Workload storm;
  storm.name = "update_storm";
  storm.vertices = 8000;
  storm.mix = {0.6, 0.2, 0.2, 0.0};
  storm.signatures = kReadSignatures;
  storm.query_clients = 1;
  storm.updater = true;
  storm.journal = true;
  storm.replay_updates = 6;
  out.push_back(storm);

  Workload hot;
  hot.name = "hot_cached";
  hot.vertices = 8000;
  // repeat_heavy's 0.9/0.1 TopL/DTopL split and single-value parameters, but
  // uniform over 256 signatures: a hit copies the cached answer, so its cost
  // follows the answer's size, and under zipf the median hit is whatever the
  // few hottest answers cost for that seed (p50 spread 34% over five seeds).
  // Hits take microseconds, so an update inside the window (~0.5 s each)
  // stalls the clients and swings throughput from run to run (127k-342k q/s
  // over five seeds). The updates therefore run inside the warm-up, between
  // filling the cache and refilling what they invalidated (most of it), so
  // the window measures the warm cache.
  hot.mix = {0.9, 0.1, 0.0, 0.0};
  hot.single_value_bands = true;
  hot.cache = true;
  // The warm-up's updates go through the journal, so this workload also
  // carries the rebuild and Engine::Recover witnesses.
  hot.journal = true;
  hot.pre_window_updates = 4;
  hot.warmup_ops = 20000;
  hot.replay_updates = 4;
  out.push_back(hot);
  return out;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> workloads = MakeWorkloads();
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<Graph> MakeGraph(const Workload& w, std::uint64_t seed) {
  SmallWorldOptions gen;
  gen.num_vertices = w.vertices;
  gen.seed = seed;
  gen.keywords.domain_size = 50;
  gen.keywords.keywords_per_vertex = 3;
  return MakeSmallWorld(gen);
}

loadgen::WorkloadSpec MakeSpec(const Workload& w, std::uint64_t seed) {
  loadgen::WorkloadSpec spec;
  spec.name = w.name;
  spec.mix = w.mix;
  spec.popularity = loadgen::Popularity::kUniform;
  spec.num_signatures = w.signatures;
  spec.keywords_per_query = 3;
  spec.delta = DeltaOptions();
  spec.seed = seed;
  if (w.single_value_bands) {
    spec.params.k_values = {4};
    spec.params.radius_values = {2};
    spec.params.theta_values = {0.2};
    spec.params.top_l_values = {5};
  }
  return spec;
}

RandomDeltaOptions DeltaOptions() {
  RandomDeltaOptions options;
  options.num_ops = 4;
  options.keyword_domain = 50;
  return options;
}

EngineOptions ServingOptions(const Workload& w, const std::string& artifact,
                             const std::string& journal) {
  EngineOptions options;
  options.index_path = artifact;
  options.build_index_if_missing = false;
  options.num_threads = kEngineThreads;
  options.enable_result_cache = w.cache;
  options.journal_path = journal;
  return options;
}

Result<std::unique_ptr<Engine>> Serve(const Graph& g, const Workload& w,
                                      const std::string& artifact,
                                      const std::string& journal,
                                      SpanThread* trace, SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  PrecomputeOptions pre_options;
  pre_options.r_max = 2;
  Clock::time_point step = Clock::now();
  std::unique_ptr<PrecomputedData> pre;
  {
    SpanThread::Scope span(trace, "index.precompute", 0);
    Result<PrecomputedData> built = PrecomputedData::Build(g, pre_options);
    if (!built.ok()) return built.status();
    pre = std::make_unique<PrecomputedData>(std::move(built).value());
  }
  times->precompute_s = SecondsSince(step);

  step = Clock::now();
  Result<TreeIndex> tree = [&] {
    SpanThread::Scope span(trace, "index.tree_build", 0);
    return TreeIndex::Build(g, *pre);
  }();
  if (!tree.ok()) return tree.status();
  times->tree_build_s = SecondsSince(step);

  step = Clock::now();
  {
    SpanThread::Scope span(trace, "storage.artifact_write", 0);
    Status written = ArtifactWriter::Write(g, *pre, *tree, artifact);
    if (!written.ok()) return written;
  }
  times->artifact_write_s = SecondsSince(step);
  times->artifact_bytes = std::filesystem::file_size(artifact);

  step = Clock::now();
  Result<std::unique_ptr<Engine>> engine = [&] {
    SpanThread::Scope span(trace, "storage.open", 0);
    return Engine::Open(ServingOptions(w, artifact, journal));
  }();
  times->open_s = SecondsSince(step);
  times->total_s = SecondsSince(start);
  return engine;
}

std::uint64_t Digest(std::uint64_t hash, const Answer& a) {
  for (VertexId c : a.centers) hash = Fnv(hash, c);
  for (std::uint64_t s : a.score_bits) hash = Fnv(hash, s);
  for (VertexId v : a.members) hash = Fnv(hash, v);
  return Fnv(hash, a.diversity_bits);
}

bool RunOnEngine(Engine& engine, const loadgen::Operation& op, Answer* answer,
                 QueryStats* stats, SpanThread* trace, std::uint64_t op_id) {
  switch (op.kind) {
    case OpKind::kTopL: {
      SpanThread::Scope span(trace, "engine.search", op_id);
      Result<TopLResult> r = engine.Search(op.query);
      if (!r.ok() || r->truncated || r->degraded) return false;
      if (answer != nullptr) AddCommunities(r->communities, answer);
      if (stats != nullptr) *stats = r->stats;
      return true;
    }
    case OpKind::kDTopL: {
      SpanThread::Scope span(trace, "engine.search_diversified", op_id);
      Result<DTopLResult> r = engine.SearchDiversified(op.query);
      if (!r.ok() || r->truncated || r->degraded) return false;
      if (answer != nullptr) {
        AddCommunities(r->communities, answer);
        answer->diversity_bits = Bits(r->diversity_score);
      }
      if (stats != nullptr) *stats = r->candidate_stats;
      return true;
    }
    case OpKind::kProgressive: {
      SpanThread::Scope span(trace, "engine.search_progressive", op_id);
      Result<TopLResult> r = engine.SearchProgressive(op.query);
      if (!r.ok() || r->truncated || r->degraded) return false;
      if (answer != nullptr) AddCommunities(r->communities, answer);
      if (stats != nullptr) *stats = r->stats;
      return true;
    }
    case OpKind::kUpdate:
      break;
  }
  return false;
}

Oracle::Oracle(std::shared_ptr<const EngineSnapshot> snapshot)
    : snapshot_(std::move(snapshot)),
      topl_(*snapshot_->graph, *snapshot_->pre, *snapshot_->tree),
      dtopl_(*snapshot_->graph, *snapshot_->pre, *snapshot_->tree) {}

bool Oracle::Run(const loadgen::Operation& op, Answer* answer, QueryStats* stats,
                 std::vector<CommunityResult>* communities) {
  if (op.kind == OpKind::kDTopL) {
    Result<DTopLResult> r = dtopl_.Search(op.query);
    if (!r.ok()) return false;
    AddCommunities(r->communities, answer);
    answer->diversity_bits = Bits(r->diversity_score);
    if (stats != nullptr) *stats = r->candidate_stats;
    if (communities != nullptr) *communities = std::move(r->communities);
    return true;
  }
  // TopL and progressive: the final progressive answer equals the plain one.
  Result<TopLResult> r = topl_.Search(op.query);
  if (!r.ok()) return false;
  AddCommunities(r->communities, answer);
  if (stats != nullptr) *stats = r->stats;
  if (communities != nullptr) *communities = std::move(r->communities);
  return true;
}

GraphDelta NextDelta(const Graph& g, std::uint64_t seed, std::uint64_t* index) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull * ++*index);
    GraphDelta delta = MakeRandomDelta(g, rng, DeltaOptions());
    if (!delta.empty()) return delta;
  }
  return {};
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
