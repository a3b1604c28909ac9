// The benchmark's four workloads. Each takes the seed, the measuring time
// and whether this is the traced run, and returns its metrics with the
// outcome of its output checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Trial sets of this seed have their exact totals pinned in the source: a
/// change that alters a schedule or the game's state space fails the
/// benchmark instead of looking faster.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;  // trials or solves run, plus aggregate checks
  std::int64_t failed = 0;     // of those, the ones that failed a check
  std::vector<Metric> metrics;
  /// Human-readable lines (sample counts, check failures) printed before
  /// the result line.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunArgs {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs workload `name` (one of workload_names()).
[[nodiscard]] Outcome run_workload(const std::string& name,
                                   const RunArgs& args);

}  // namespace perfbench
