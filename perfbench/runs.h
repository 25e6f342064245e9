// The two kinds of run (untraced end-to-end, traced per-layer) and the
// correctness witnesses both use.
#ifndef TOPL_PERFBENCH_RUNS_H_
#define TOPL_PERFBENCH_RUNS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "loadgen/workload.h"
#include "workload.h"

namespace perfbench {

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir;  // trace files
  std::string scratch;  // artifacts and journals of this run; removed at exit
};

/// Exit code: 0 when every answer matched and no op failed.
int RunUntraced(const RunArgs& args);
int RunTraced(const RunArgs& args);

/// The first `count` ops of the stream (every workload's stream holds
/// queries only; updates come from the seeded delta stream).
std::vector<topl::loadgen::Operation> QueryPrefix(
    const topl::loadgen::WorkloadGenerator& generator, std::size_t count);

/// cold_read: every captured engine answer equals a private detector's answer
/// on the engine's snapshot. `*digest` folds the answers in stream order.
bool CheckAgainstDetector(topl::Engine& engine,
                          const topl::loadgen::WorkloadGenerator& generator,
                          const std::map<std::uint64_t, Answer>& captured,
                          std::uint64_t* digest);

/// Answers of `probes` from `engine`, each also checked against a private
/// detector on the engine's current snapshot.
bool ProbeAnswers(topl::Engine& engine,
                  const std::vector<topl::loadgen::Operation>& probes,
                  std::vector<Answer>* answers);

/// Workloads with a journal: the live engine's probe answers equal those of
/// a full rebuild of its final graph, and of Engine::Recover over the base
/// artifact plus the live journal (which must hold exactly `applied`
/// records). The live engine is shut down first so the journal can be
/// reopened.
bool CheckRebuildAndRecover(std::unique_ptr<topl::Engine>* live,
                            const Workload& w,
                            const std::vector<topl::loadgen::Operation>& probes,
                            const std::string& base_artifact,
                            const std::string& journal, std::size_t applied,
                            const std::string& scratch);

/// hot_cached: every distinct query key, asked twice through the cached
/// engine, equals a cold private detector on the serving snapshot.
bool CheckCachedAnswers(topl::Engine& engine,
                        const topl::loadgen::WorkloadGenerator& generator);

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_RUNS_H_
