// Collects a run's metrics and prints them twice: a human-readable table
// (name, value, unit, sample count) and, as the last line of stdout, the
// JSON result object.
#ifndef TOPL_PERFBENCH_REPORT_H_
#define TOPL_PERFBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// A metric of the JSON result. `n` is the sample count behind it (0 when
  /// it is not a statistic over samples).
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t n = 0) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, n, true});
  }
  /// A line of the human-readable table only.
  void Note(const std::string& name, double value, const std::string& unit,
            std::size_t n = 0) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, n, false});
  }

  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %16.6f %-8s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.n > 0) std::printf(" n=%zu", m.n);
      std::printf("%s\n", m.in_json ? "" : "  (report only)");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
    bool in_json;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_REPORT_H_
