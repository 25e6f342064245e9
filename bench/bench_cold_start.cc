// bench_cold_start — measures Engine::Open cold-start latency for the two
// TOPLIDX2 encodings of the same offline phase:
//
//   compressed: the artifact written with --compress=1 (version 2); its
//               delta+varint sections are decoded into owned heap memory at
//               open, the raw ones stay mapped;
//   mmap:       the raw artifact (version 1), mapped and served zero-copy
//               (measured with and without the checksum pass).
//
// Each measurement runs in a forked child so RSS and allocator state never
// leak between paths; the page cache is warmed with a throwaway read first
// so the comparison isolates decode+copy cost rather than disk speed.
//
//   bench_cold_start [--vertices=20000] [--rmax=2] [--seed=42] [--repeat=3]
//                    [--json=BENCH_coldstart.json] [--dir=DIR] [--threads=0]
//
// Emits a human summary on stdout and a machine-readable JSON file (open
// latency, first-query latency, RSS delta per path) for CI trend tracking.
// Exits non-zero when any path fails to serve.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "topl.h"

namespace {

using namespace topl;  // NOLINT(build/namespaces)

struct Measurement {
  bool ok = false;
  double open_seconds = 0.0;
  double first_query_seconds = 0.0;
  long rss_delta_kb = 0;
};

long ReadRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// Opens an engine with `options`, serves `query` once, reports timings and
// the RSS the open+query added. Runs in the calling process.
Measurement MeasureOnce(const EngineOptions& options, const Query& query) {
  Measurement m;
  const long rss_before = ReadRssKb();
  Timer open_timer;
  Result<std::unique_ptr<Engine>> engine = Engine::Open(options);
  m.open_seconds = open_timer.ElapsedSeconds();
  if (!engine.ok()) {
    std::fprintf(stderr, "open failed: %s\n", engine.status().ToString().c_str());
    return m;
  }
  Timer query_timer;
  Result<TopLResult> answer = (*engine)->Search(query);
  m.first_query_seconds = query_timer.ElapsedSeconds();
  if (!answer.ok()) {
    std::fprintf(stderr, "query failed: %s\n", answer.status().ToString().c_str());
    return m;
  }
  m.rss_delta_kb = ReadRssKb() - rss_before;
  m.ok = true;
  return m;
}

// Forks, measures in the child, and ships the Measurement back over a pipe.
// Isolation matters: the compressed path's decoded vectors would otherwise
// sit in the allocator and mask the mmap path's RSS footprint.
Measurement MeasureInChild(const EngineOptions& options, const Query& query) {
  int fds[2];
  if (pipe(fds) != 0) return MeasureOnce(options, query);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return MeasureOnce(options, query);
  }
  if (pid == 0) {
    close(fds[0]);
    const Measurement m = MeasureOnce(options, query);
    ssize_t ignored = write(fds[1], &m, sizeof(m));
    (void)ignored;
    close(fds[1]);
    _exit(m.ok ? 0 : 1);
  }
  close(fds[1]);
  Measurement m;
  const ssize_t got = read(fds[0], &m, sizeof(m));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(m))) m.ok = false;
  return m;
}

// Best-of-N: minimum open/query latency, RSS from the fastest-open run.
Measurement MeasureBest(const EngineOptions& options, const Query& query,
                        int repeat) {
  Measurement best;
  for (int i = 0; i < repeat; ++i) {
    const Measurement m = MeasureInChild(options, query);
    if (!m.ok) return m;
    if (!best.ok) {
      best = m;
      continue;
    }
    if (m.open_seconds < best.open_seconds) {
      best.open_seconds = m.open_seconds;
      best.rss_delta_kb = m.rss_delta_kb;
    }
    best.first_query_seconds =
        std::min(best.first_query_seconds, m.first_query_seconds);
  }
  return best;
}

void WarmPageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    if (in.gcount() == 0) break;
  }
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void PrintPathJson(std::FILE* out, const char* name, const Measurement& m,
                   bool trailing_comma) {
  std::fprintf(out,
               "    \"%s\": {\"open_seconds\": %.6f, "
               "\"first_query_seconds\": %.6f, \"rss_delta_kb\": %ld}%s\n",
               name, m.open_seconds, m.first_query_seconds, m.rss_delta_kb,
               trailing_comma ? "," : "");
}

bool ParseFlags(int argc, char** argv,
                std::map<std::string, std::string>* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      (*flags)[arg.substr(2)] = "1";
    } else {
      (*flags)[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return true;
}

std::uint64_t IntFlag(const std::map<std::string, std::string>& flags,
                      const std::string& key, std::uint64_t fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback
                           : std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr, "usage: bench_cold_start [--vertices=N] [--rmax=R] "
                         "[--seed=S] [--repeat=K] [--json=FILE] [--dir=DIR] "
                         "[--threads=T]\n");
    return 2;
  }
  const std::size_t vertices = IntFlag(flags, "vertices", 20000);
  const std::uint32_t r_max = static_cast<std::uint32_t>(IntFlag(flags, "rmax", 2));
  const std::uint64_t seed = IntFlag(flags, "seed", 42);
  const int repeat = static_cast<int>(IntFlag(flags, "repeat", 3));
  const std::string json_path =
      flags.count("json") ? flags.at("json") : "BENCH_coldstart.json";
  const std::string dir =
      flags.count("dir")
          ? flags.at("dir")
          : (std::filesystem::temp_directory_path() /
             ("topl_coldstart_" + std::to_string(::getpid()))).string();
  std::filesystem::create_directories(dir);
  const std::string artifact_path = dir + "/index.idx";
  const std::string packed_path = dir + "/index_packed.idx";

  // ---- Offline phase: one graph, one index, both artifact encodings. ----
  SmallWorldOptions gen;
  gen.num_vertices = vertices;
  gen.seed = seed;
  Result<Graph> graph = MakeSmallWorld(gen);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  PrecomputeOptions pre_options;
  pre_options.r_max = r_max;
  pre_options.num_threads = IntFlag(flags, "threads", 0);
  Timer build_timer;
  Result<PrecomputedData> pre = PrecomputedData::Build(*graph, pre_options);
  if (!pre.ok()) {
    std::fprintf(stderr, "precompute failed: %s\n", pre.status().ToString().c_str());
    return 1;
  }
  Result<TreeIndex> tree = TreeIndex::Build(*graph, *pre);
  if (!tree.ok()) {
    std::fprintf(stderr, "tree build failed: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  const double build_seconds = build_timer.ElapsedSeconds();
  ArtifactWriteOptions packed;
  packed.compress = true;
  Status status = ArtifactWriter::Write(*graph, *pre, *tree, artifact_path);
  if (status.ok()) {
    status = ArtifactWriter::Write(*graph, *pre, *tree, packed_path, packed);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const std::size_t num_edges = graph->NumEdges();

  // A query whose keywords certainly occur: vertex 0's first keywords.
  Query query;
  for (VertexId v = 0; v < graph->NumVertices() && query.keywords.size() < 3; ++v) {
    for (KeywordId w : graph->Keywords(v)) {
      if (query.keywords.size() < 3 &&
          std::find(query.keywords.begin(), query.keywords.end(), w) ==
              query.keywords.end()) {
        query.keywords.push_back(w);
      }
    }
  }
  std::sort(query.keywords.begin(), query.keywords.end());
  query.k = 3;
  query.radius = std::min<std::uint32_t>(2, r_max);
  query.theta = 0.2;
  query.top_l = 5;

  // Everything below measures decode vs map, not disk reads.
  WarmPageCache(artifact_path);
  WarmPageCache(packed_path);

  // Both artifacts embed the graph, so no graph_path is needed.
  EngineOptions packed_options;
  packed_options.index_path = packed_path;
  packed_options.build_index_if_missing = false;

  EngineOptions mmap_options;
  mmap_options.index_path = artifact_path;
  mmap_options.build_index_if_missing = false;

  EngineOptions mmap_unverified = mmap_options;
  mmap_unverified.verify_artifact_checksums = false;

  const Measurement compressed = MeasureBest(packed_options, query, repeat);
  const Measurement mmap = MeasureBest(mmap_options, query, repeat);
  const Measurement mmap_raw = MeasureBest(mmap_unverified, query, repeat);
  const bool all_ok = compressed.ok && mmap.ok && mmap_raw.ok;

  const double speedup = mmap.open_seconds > 0
                             ? compressed.open_seconds / mmap.open_seconds
                             : 0.0;
  std::printf("graph: %zu vertices, %zu edges; offline build %.2fs\n",
              vertices, num_edges, build_seconds);
  std::printf("artifact: %llu bytes raw, %llu bytes compressed\n",
              static_cast<unsigned long long>(FileBytes(artifact_path)),
              static_cast<unsigned long long>(FileBytes(packed_path)));
  std::printf("%-18s %14s %18s %14s\n", "path", "open", "first query", "rss delta");
  auto print_row = [](const char* name, const Measurement& m) {
    std::printf("%-18s %12.3fms %16.3fms %12ldkB\n", name,
                m.open_seconds * 1e3, m.first_query_seconds * 1e3,
                m.rss_delta_kb);
  };
  print_row("compressed (decode)", compressed);
  print_row("mmap (raw)", mmap);
  print_row("mmap, no verify", mmap_raw);
  std::printf("open speedup (mmap vs compressed): %.1fx\n", speedup);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"benchmark\": \"cold_start\",\n");
  std::fprintf(json,
               "  \"graph\": {\"vertices\": %zu, \"edges\": %zu},\n",
               vertices, num_edges);
  std::fprintf(json, "  \"r_max\": %u,\n", r_max);
  std::fprintf(json, "  \"offline_build_seconds\": %.3f,\n", build_seconds);
  std::fprintf(json, "  \"artifact_bytes\": %llu,\n",
               static_cast<unsigned long long>(FileBytes(artifact_path)));
  std::fprintf(json, "  \"compressed_bytes\": %llu,\n",
               static_cast<unsigned long long>(FileBytes(packed_path)));
  std::fprintf(json, "  \"paths\": {\n");
  PrintPathJson(json, "compressed", compressed, true);
  PrintPathJson(json, "mmap", mmap, true);
  PrintPathJson(json, "mmap_unverified", mmap_raw, false);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"open_speedup_mmap_vs_compressed\": %.2f,\n",
               speedup);
  std::fprintf(json, "  \"ok\": %s\n", all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (!flags.count("dir")) std::filesystem::remove_all(dir);
  return all_ok ? 0 : 1;
}
