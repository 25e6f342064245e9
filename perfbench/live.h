// The closed-loop serving phase: query clients pulling query ops from the
// stream, plus (update_storm) one updater applying the seeded delta stream
// back to back. Every op's latency is kept as a raw sample.
#ifndef TOPL_PERFBENCH_LIVE_H_
#define TOPL_PERFBENCH_LIVE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "loadgen/workload.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// State that carries over from one live phase of a run to the next.
struct LiveState {
  std::atomic<std::uint64_t> next_op{0};
  /// Position of the updater in the seeded delta stream (NextDelta).
  std::uint64_t update_stream_index = 0;
  /// Deltas the updater applied, in order. Only the single updater writes
  /// these; readers wait until it has joined.
  std::vector<topl::GraphDelta> updater_deltas;
  std::uint64_t live_snapshots_max = 0;
};

/// Queries each client traces in a traced live window.
inline constexpr std::size_t kTracedQueriesPerClient = 4096;

struct LivePhase {
  double seconds = 0.0;  // 0 = no deadline (stop_at_op must bound it)
  std::uint64_t stop_at_op = std::numeric_limits<std::uint64_t>::max();
  bool run_updater = false;
  /// Stream indices whose answers are captured.
  std::uint64_t capture_begin = 0;
  std::uint64_t capture_end = 0;
  /// When set, queries with an even stream index and every update are
  /// traced; the odd-index queries run untraced beside them, so the two
  /// latency sets show the tracing overhead under the same load. Each client
  /// traces at most kTracedQueriesPerClient queries; past that it runs
  /// untraced and adds no more samples to either set, so the spans and the
  /// trace file stay small however fast the workload runs.
  SpanRecorder* spans = nullptr;
};

struct LiveResult {
  /// Latency samples in ms, indexed by OpKind.
  std::array<std::vector<double>, topl::loadgen::kNumOpKinds> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::map<std::uint64_t, Answer> captured;
  /// Query latencies (ms) of the traced and untraced halves (spans set).
  std::vector<double> traced_query_ms;
  std::vector<double> untraced_query_ms;

  std::vector<double> QueryLatencies() const;
};

/// The warm-up before the measured window: `w.warmup_ops` stream ops; then,
/// when the workload has pre-window updates, those updates (drawn from the
/// updater's seeded stream, with no queries running) and another
/// `w.warmup_ops` ops to refill what they invalidated. Leaves
/// state->next_op at the window's first op.
LiveResult WarmUp(topl::Engine& engine,
                  const topl::loadgen::WorkloadGenerator& generator,
                  const Workload& w, std::uint64_t seed, LiveState* state,
                  SpanThread* trace);

LiveResult RunLive(topl::Engine& engine,
                   const topl::loadgen::WorkloadGenerator& generator,
                   const Workload& w, std::uint64_t seed, LiveState* state,
                   const LivePhase& phase);

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_LIVE_H_
