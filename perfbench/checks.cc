#include <cstdio>

#include "runs.h"

namespace perfbench {

using namespace topl;  // NOLINT(build/namespaces)

std::vector<loadgen::Operation> QueryPrefix(
    const loadgen::WorkloadGenerator& generator, std::size_t count) {
  std::vector<loadgen::Operation> out;
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(generator.At(i));
  return out;
}

bool CheckAgainstDetector(Engine& engine,
                          const loadgen::WorkloadGenerator& generator,
                          const std::map<std::uint64_t, Answer>& captured,
                          std::uint64_t* digest) {
  Oracle oracle(engine.snapshot());
  *digest = kDigestSeed;
  for (const auto& [index, answer] : captured) {
    Answer expected;
    if (!oracle.Run(generator.At(index), &expected, nullptr, nullptr) ||
        !(expected == answer)) {
      std::fprintf(stderr, "DIVERGENCE: op %llu differs from the detector\n",
                   static_cast<unsigned long long>(index));
      return false;
    }
    *digest = Digest(*digest, answer);
  }
  return true;
}

bool ProbeAnswers(Engine& engine, const std::vector<loadgen::Operation>& probes,
                  std::vector<Answer>* answers) {
  Oracle oracle(engine.snapshot());
  answers->clear();
  for (const loadgen::Operation& op : probes) {
    Answer got;
    Answer expected;
    if (!RunOnEngine(engine, op, &got, nullptr, nullptr, 0) ||
        !oracle.Run(op, &expected, nullptr, nullptr) || !(got == expected)) {
      std::fprintf(stderr, "DIVERGENCE: probe op %llu differs from the detector\n",
                   static_cast<unsigned long long>(op.index));
      return false;
    }
    answers->push_back(std::move(got));
  }
  return true;
}

bool CheckRebuildAndRecover(std::unique_ptr<Engine>* live, const Workload& w,
                            const std::vector<loadgen::Operation>& probes,
                            const std::string& base_artifact,
                            const std::string& journal, std::size_t applied,
                            const std::string& scratch) {
  std::vector<Answer> live_answers;
  if (!ProbeAnswers(**live, probes, &live_answers)) return false;

  SetupTimes ignored;
  Result<std::unique_ptr<Engine>> rebuilt =
      Serve(*(*live)->snapshot()->graph, w, scratch + "/rebuild.bin", "",
            nullptr, &ignored);
  std::vector<Answer> rebuilt_answers;
  if (!rebuilt.ok() || !ProbeAnswers(**rebuilt, probes, &rebuilt_answers) ||
      rebuilt_answers != live_answers) {
    std::fprintf(stderr, "DIVERGENCE: full rebuild differs from the live engine\n");
    return false;
  }
  rebuilt->reset();

  live->reset();
  RecoveryInfo info;
  Result<std::unique_ptr<Engine>> recovered =
      Engine::Recover(ServingOptions(w, base_artifact, journal), &info);
  std::vector<Answer> recovered_answers;
  if (!recovered.ok() || info.records_replayed != applied ||
      !ProbeAnswers(**recovered, probes, &recovered_answers) ||
      recovered_answers != live_answers) {
    std::fprintf(stderr,
                 "DIVERGENCE: recovery (%llu of %zu records) differs from the "
                 "live engine\n",
                 static_cast<unsigned long long>(info.records_replayed), applied);
    return false;
  }
  return true;
}

bool CheckCachedAnswers(Engine& engine,
                        const loadgen::WorkloadGenerator& generator) {
  const loadgen::ParamBands& bands = generator.spec().params;
  std::vector<loadgen::Operation> probes;
  for (std::uint32_t s = 0; s < generator.spec().num_signatures; ++s) {
    for (OpKind kind : {OpKind::kTopL, OpKind::kDTopL}) {
      loadgen::Operation op;
      op.kind = kind;
      op.signature = s;
      op.query.keywords = generator.signature(s);
      op.query.k = bands.k_values.front();
      op.query.radius = bands.radius_values.front();
      op.query.theta = bands.theta_values.front();
      op.query.top_l = bands.top_l_values.front();
      probes.push_back(std::move(op));
    }
  }
  // The first pass may fill the cache; the second is served from it.
  std::vector<Answer> answers;
  return ProbeAnswers(engine, probes, &answers) &&
         ProbeAnswers(engine, probes, &answers);
}

}  // namespace perfbench
