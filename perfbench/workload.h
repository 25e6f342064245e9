// The benchmark's three workloads and the pieces every phase shares: graph
// and op-stream generation, set-up (offline build → artifact → Engine::Open),
// answer capture and comparison, and the seeded update stream.
#ifndef TOPL_PERFBENCH_WORKLOAD_H_
#define TOPL_PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/dtopl_detector.h"
#include "core/topl_detector.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "loadgen/workload.h"
#include "spans.h"

namespace perfbench {

using topl::loadgen::OpKind;

/// Worker threads of every engine's pool; with the clients and the updater
/// each workload uses at most four threads.
inline constexpr std::size_t kEngineThreads = 2;

/// Query ops of the stream's prefix replayed in the traced run.
inline constexpr std::size_t kReplayQueries = 48;

/// Op-id spaces, so spans of the live phases and of the replay stay apart.
inline constexpr std::uint64_t kLiveUpdateOps = 1ull << 40;
inline constexpr std::uint64_t kReplayOps = 1ull << 41;
inline constexpr std::uint64_t kReplayAfterUpdateOps = kReplayOps + (1ull << 39);
inline constexpr std::uint64_t kReplayUpdateOps = 1ull << 42;

/// Span name of one op of the given kind.
inline const char* OpSpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kTopL:
      return "op.topl";
    case OpKind::kDTopL:
      return "op.dtopl";
    case OpKind::kProgressive:
      return "op.progressive";
    case OpKind::kUpdate:
      return "op.update";
  }
  return "op.unknown";
}

struct Workload {
  std::string name;
  std::size_t vertices = 0;
  /// Fractions over topl / dtopl / progressive / update of the op stream.
  std::array<double, topl::loadgen::kNumOpKinds> mix{};
  /// Size of the stream's signature pool (keyword sets drawn uniformly).
  std::uint32_t signatures = 256;
  /// One value per query parameter (k=4, r=2, θ=0.2, L=5), so keys repeat.
  bool single_value_bands = false;
  std::size_t query_clients = 2;
  /// A dedicated thread applying the seeded delta stream back to back beside
  /// the clients.
  bool updater = false;
  /// Deltas of the updater's stream applied during the warm-up (see WarmUp).
  std::size_t pre_window_updates = 0;
  bool journal = false;
  bool cache = false;
  /// Stream ops run before the measured window (contexts, cache fill).
  std::uint64_t warmup_ops = 16;
  /// Measured ops whose answers are checked against a private detector.
  std::uint64_t checked_ops = 0;
  /// Deltas replayed (and probed layer by layer) in the traced run.
  std::size_t replay_updates = 4;
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

topl::Result<topl::Graph> MakeGraph(const Workload& w, std::uint64_t seed);
topl::loadgen::WorkloadSpec MakeSpec(const Workload& w, std::uint64_t seed);
topl::RandomDeltaOptions DeltaOptions();

/// Seconds spent in each set-up step.
struct SetupTimes {
  double precompute_s = 0.0;
  double tree_build_s = 0.0;
  double artifact_write_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
  std::uint64_t artifact_bytes = 0;
};

topl::EngineOptions ServingOptions(const Workload& w, const std::string& artifact,
                                   const std::string& journal);

/// From a graph in memory to a servable engine: PrecomputedData::Build,
/// TreeIndex::Build, ArtifactWriter::Write, Engine::Open on the artifact
/// (with the journal when `journal` is non-empty). Spans go to `trace`.
topl::Result<std::unique_ptr<topl::Engine>> Serve(const topl::Graph& g,
                                                  const Workload& w,
                                                  const std::string& artifact,
                                                  const std::string& journal,
                                                  SpanThread* trace,
                                                  SetupTimes* times);

/// An answer reduced to what must match bit for bit across engines.
struct Answer {
  std::vector<topl::VertexId> centers;
  std::vector<std::uint64_t> score_bits;
  std::vector<topl::VertexId> members;
  std::uint64_t diversity_bits = 0;
  bool operator==(const Answer&) const = default;
};

inline std::uint64_t Bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::uint64_t Digest(std::uint64_t hash, const Answer& a);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Runs a query op through the engine (Search / SearchDiversified /
/// SearchProgressive with default options). Fills `answer` and `stats` when
/// non-null. A failed, truncated or degraded answer returns false.
bool RunOnEngine(topl::Engine& engine, const topl::loadgen::Operation& op,
                 Answer* answer, topl::QueryStats* stats, SpanThread* trace,
                 std::uint64_t op_id);

/// Private detectors over one pinned snapshot: the reference every engine
/// answer is compared with.
class Oracle {
 public:
  explicit Oracle(std::shared_ptr<const topl::EngineSnapshot> snapshot);

  /// Answers `op` sequentially. `communities` (optional) receives the
  /// answer's communities.
  bool Run(const topl::loadgen::Operation& op, Answer* answer,
           topl::QueryStats* stats,
           std::vector<topl::CommunityResult>* communities);

  const topl::EngineSnapshot& snapshot() const { return *snapshot_; }

 private:
  std::shared_ptr<const topl::EngineSnapshot> snapshot_;
  topl::TopLDetector topl_;
  topl::DTopLDetector dtopl_;
};

/// Delta `*index` of the seeded update stream, drawn against `g`: the
/// stream is a function of (seed, graph state), so one updater applying it
/// in order always produces the same sequence. Empty draws are skipped.
topl::GraphDelta NextDelta(const topl::Graph& g, std::uint64_t seed,
                           std::uint64_t* index);

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_WORKLOAD_H_
