#include "live.h"

#include <algorithm>
#include <thread>

namespace perfbench {
namespace {

using namespace topl;  // NOLINT(build/namespaces)

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One step of the single updater: the next delta of the seeded stream,
/// drawn against the current snapshot and applied.
bool UpdaterStep(Engine& engine, std::uint64_t seed, LiveState* state,
                 SpanThread* trace) {
  const GraphDelta delta =
      NextDelta(*engine.snapshot()->graph, seed, &state->update_stream_index);
  const std::uint64_t op_id = kLiveUpdateOps + state->updater_deltas.size();
  SpanThread::Scope op_span(trace, "op.update", op_id);
  if (delta.empty()) return false;
  {
    SpanThread::Scope span(trace, "engine.apply_update", op_id);
    if (!engine.ApplyUpdate(delta).ok()) return false;
  }
  state->live_snapshots_max =
      std::max(state->live_snapshots_max, engine.Stats().live_snapshots);
  state->updater_deltas.push_back(delta);
  return true;
}

}  // namespace

LiveResult WarmUp(Engine& engine, const loadgen::WorkloadGenerator& generator,
                  const Workload& w, std::uint64_t seed, LiveState* state,
                  SpanThread* trace) {
  LivePhase phase;
  phase.stop_at_op = w.warmup_ops;
  LiveResult warm = RunLive(engine, generator, w, seed, state, phase);
  state->next_op = phase.stop_at_op;
  if (w.pre_window_updates == 0) return warm;

  for (std::size_t i = 0; i < w.pre_window_updates; ++i) {
    ++warm.attempted;
    if (!UpdaterStep(engine, seed, state, trace)) ++warm.failed;
  }
  phase.stop_at_op += w.warmup_ops;
  const LiveResult refill = RunLive(engine, generator, w, seed, state, phase);
  state->next_op = phase.stop_at_op;
  warm.attempted += refill.attempted;
  warm.failed += refill.failed;
  return warm;
}

std::vector<double> LiveResult::QueryLatencies() const {
  std::vector<double> out;
  for (OpKind kind : {OpKind::kTopL, OpKind::kDTopL, OpKind::kProgressive}) {
    const std::vector<double>& v = latency_ms[static_cast<std::size_t>(kind)];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

LiveResult RunLive(Engine& engine, const loadgen::WorkloadGenerator& generator,
                   const Workload& w, std::uint64_t seed, LiveState* state,
                   const LivePhase& phase) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      phase.seconds > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(phase.seconds))
          : Clock::time_point::max();

  const std::size_t num_threads =
      w.query_clients + (phase.run_updater && w.updater ? 1 : 0);
  std::vector<LiveResult> local(num_threads);
  std::vector<Clock::time_point> finished(num_threads, start);
  std::vector<SpanThread*> traces(num_threads, nullptr);
  for (std::size_t t = 0; t < num_threads && phase.spans != nullptr; ++t) {
    traces[t] = phase.spans->NewThread();
  }

  auto client = [&](std::size_t t) {
    LiveResult& out = local[t];
    std::size_t traced = 0;
    while (Clock::now() < deadline) {
      const std::uint64_t i = state->next_op.fetch_add(1);
      if (i >= phase.stop_at_op) break;
      const loadgen::Operation op = generator.At(i);
      const bool paired =
          phase.spans != nullptr && traced < kTracedQueriesPerClient;
      SpanThread* trace = paired && i % 2 == 0 ? traces[t] : nullptr;
      if (trace != nullptr) ++traced;
      const bool capture = i >= phase.capture_begin && i < phase.capture_end;
      Answer answer;
      const Clock::time_point begin = Clock::now();
      bool ok = false;
      {
        SpanThread::Scope span(trace, OpSpanName(op.kind), i);
        ok = RunOnEngine(engine, op, capture ? &answer : nullptr, nullptr,
                         trace, i);
      }
      const double ms = MsBetween(begin, Clock::now());
      out.latency_ms[static_cast<std::size_t>(op.kind)].push_back(ms);
      if (paired) {
        (trace != nullptr ? out.traced_query_ms : out.untraced_query_ms)
            .push_back(ms);
      }
      ++out.attempted;
      if (!ok) ++out.failed;
      if (capture && ok) out.captured.emplace(i, std::move(answer));
    }
    finished[t] = Clock::now();
  };

  auto updater = [&](std::size_t t) {
    LiveResult& out = local[t];
    while (Clock::now() < deadline) {
      const Clock::time_point begin = Clock::now();
      const bool ok = UpdaterStep(engine, seed, state, traces[t]);
      out.latency_ms[static_cast<std::size_t>(OpKind::kUpdate)].push_back(
          MsBetween(begin, Clock::now()));
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        break;
      }
    }
    finished[t] = Clock::now();
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    if (t < w.query_clients) {
      threads.emplace_back(client, t);
    } else {
      threads.emplace_back(updater, t);
    }
  }
  for (std::thread& thread : threads) thread.join();

  LiveResult result;
  Clock::time_point end = start;
  for (std::size_t t = 0; t < num_threads; ++t) {
    LiveResult& part = local[t];
    for (std::size_t k = 0; k < part.latency_ms.size(); ++k) {
      result.latency_ms[k].insert(result.latency_ms[k].end(),
                                  part.latency_ms[k].begin(),
                                  part.latency_ms[k].end());
    }
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.captured.merge(part.captured);
    result.traced_query_ms.insert(result.traced_query_ms.end(),
                                  part.traced_query_ms.begin(),
                                  part.traced_query_ms.end());
    result.untraced_query_ms.insert(result.untraced_query_ms.end(),
                                    part.untraced_query_ms.begin(),
                                    part.untraced_query_ms.end());
    end = std::max(end, finished[t]);
  }
  result.wall_s = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace perfbench
