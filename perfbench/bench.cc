// topl_perfbench — the repository's benchmark of the TopL/DTopL serving
// path: artifact → Engine::Open (mmap) → Search / SearchDiversified /
// SearchProgressive / ApplyUpdate, under one of three closed-loop workloads.
//
//   topl_perfbench --workload cold_read|update_storm|hot_cached --seed N
//                  --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run that
// records spans around the benchmark's calls into each layer and derives the
// per-layer metrics from them (DIR/trace-<workload>-seed<N>.json holds the
// spans and the run's work counters). Either run checks the answers it got
// and exits 1 on any divergence or failed op; the last line of stdout is the
// JSON result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <unistd.h>

#include "live.h"
#include "report.h"
#include "runs.h"
#include "samples.h"

namespace perfbench {

using namespace topl;  // NOLINT(build/namespaces)

namespace {

constexpr int kSetupRepeats = 3;

double Median(std::vector<double> v) { return PercentileOf(std::move(v), 50).value; }

}  // namespace

int RunUntraced(const RunArgs& args) {
  const Workload& w = *args.workload;
  Result<Graph> graph = MakeGraph(w, args.seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 2;
  }

  // Set up several times; the median is setup_s, the last engine serves.
  const std::string journal = w.journal ? args.scratch + "/live.journal" : "";
  std::string artifact;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    if (!artifact.empty()) std::filesystem::remove(artifact);
    if (!journal.empty()) std::filesystem::remove(journal);
    artifact = args.scratch + "/base-" + std::to_string(r) + ".bin";
    SetupTimes times;
    Result<std::unique_ptr<Engine>> served =
        Serve(*graph, w, artifact, journal, nullptr, &times);
    if (!served.ok()) {
      std::fprintf(stderr, "setup: %s\n", served.status().ToString().c_str());
      return 2;
    }
    engine = std::move(served).value();
    setup_s.push_back(times.total_s);
  }

  Result<loadgen::WorkloadGenerator> generator =
      loadgen::WorkloadGenerator::Create(MakeSpec(w, args.seed), *graph);
  if (!generator.ok()) {
    std::fprintf(stderr, "workload: %s\n", generator.status().ToString().c_str());
    return 2;
  }

  LiveState state;
  const LiveResult warm =
      WarmUp(*engine, *generator, w, args.seed, &state, nullptr);
  // Peak memory of set-up and serving, read before the window so the
  // benchmark's own latency samples do not count.
  const double peak_rss_mb = PeakRssMb();

  LivePhase measured;
  measured.seconds = args.seconds;
  measured.run_updater = true;
  measured.capture_begin = state.next_op;
  measured.capture_end = measured.capture_begin + w.checked_ops;
  LiveResult live = RunLive(*engine, *generator, w, args.seed, &state, measured);

  bool correct = warm.failed == 0 && live.failed == 0;
  std::uint64_t digest = kDigestSeed;
  if (w.checked_ops > 0) {
    correct = live.captured.size() == w.checked_ops &&
              CheckAgainstDetector(*engine, *generator, live.captured, &digest) &&
              correct;
  }
  if (w.cache) correct = CheckCachedAnswers(*engine, *generator) && correct;
  const std::size_t updates_applied = state.updater_deltas.size();
  if (w.journal) {
    correct = CheckRebuildAndRecover(&engine, w, QueryPrefix(*generator, 8),
                                     artifact, journal, updates_applied,
                                     args.scratch) &&
              correct;
  }

  // Sorted in place: the hot_cached window holds millions of samples.
  for (std::vector<double>& samples : live.latency_ms) {
    std::sort(samples.begin(), samples.end());
  }
  std::vector<double> queries = live.QueryLatencies();
  std::sort(queries.begin(), queries.end());
  auto kind = [&](OpKind k) -> const std::vector<double>& {
    return live.latency_ms[static_cast<std::size_t>(k)];
  };
  const std::vector<double>& topl = kind(OpKind::kTopL);
  const std::vector<double>& dtopl = kind(OpKind::kDTopL);
  const std::vector<double>& progressive = kind(OpKind::kProgressive);
  const std::vector<double>& updates = kind(OpKind::kUpdate);

  std::printf("== %s seed=%llu: %zu vertices, %.1fs measured ==\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), graph->NumVertices(),
              live.wall_s);
  Report report;
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("query_qps", static_cast<double>(queries.size()) / live.wall_s, "1/s",
             queries.size());
  const Percentile q50 = PercentileOfSorted(queries, 50);
  const Percentile q99 = PercentileOfSorted(queries, 99);
  report.Add("query_p50_ms", q50.value, "ms", q50.n);
  report.Add("query_p99_ms", q99.value, "ms", q99.n);
  report.Add("topl_p50_ms", PercentileOfSorted(topl, 50).value, "ms", topl.size());
  report.Add("dtopl_p50_ms", PercentileOfSorted(dtopl, 50).value, "ms", dtopl.size());
  // Kinds a workload does not run have no sample; they stay out of the JSON,
  // which carries the same metric set on every workload.
  if (!progressive.empty()) {
    report.Note("progressive_p50_ms", PercentileOfSorted(progressive, 50).value, "ms",
                progressive.size());
  }
  if (!updates.empty()) {
    report.Note("update_p50_ms", PercentileOfSorted(updates, 50).value, "ms",
                updates.size());
    report.Note("update_p90_ms", PercentileOfSorted(updates, 90).value, "ms",
                updates.size());
    report.Note("updates_per_s", static_cast<double>(updates.size()) / live.wall_s,
                "1/s", updates.size());
  }
  // A percentile is only trustworthy with at least ten samples beyond it.
  for (const auto& [name, p, n] :
       {std::tuple{"query_p99_ms", 99.0, queries.size()},
        std::tuple{"update_p90_ms", 90.0, updates.size()}}) {
    if (n > 0 && HighestSupportedPercentile(n) < p) {
      std::printf("note: %s rests on %zu samples; p%g is the highest percentile "
                  "with ten beyond it\n",
                  name, n, HighestSupportedPercentile(n));
    }
  }
  report.Note("error_rate",
              static_cast<double>(live.failed) / static_cast<double>(live.attempted),
              "ratio", live.attempted);
  if (w.checked_ops > 0) {
    std::printf("answer digest over ops [%llu, %llu): %016llx\n",
                static_cast<unsigned long long>(measured.capture_begin),
                static_cast<unsigned long long>(measured.capture_end),
                static_cast<unsigned long long>(digest));
  }
  report.Print(correct, live.attempted, live.failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: topl_perfbench --workload cold_read|update_storm|"
               "hot_cached --seed N --seconds S --trace 0|1 --out-dir DIR\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool trace = false;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  args.workload = perfbench::FindWorkload(workload);
  if (args.workload == nullptr) Usage(("unknown workload " + workload).c_str());
  if (args.out_dir.empty() || !(args.seconds > 0.0)) Usage("bad arguments");

  args.scratch = args.out_dir + "/run-" + workload + "-" + std::to_string(args.seed) +
                 "-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.scratch);
  const int code =
      trace ? perfbench::RunTraced(args) : perfbench::RunUntraced(args);
  std::filesystem::remove_all(args.scratch);
  return code;
}
