// Measurement helpers shared by the benchmark and its tests: the seeded
// trial generator, order statistics that refuse under-sampled tails,
// the expand()-timing game wrapper, and process memory probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exp/seed.hpp"
#include "game/solver.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- Trial sets ---------------------------------------------------------------

/// Everything one simulator trial draws its randomness from. The program
/// sees only these numbers; the benchmark seed never reaches it directly.
struct TrialSpec {
  std::uint64_t coin_seed = 0;   // the World's CoinSource
  std::uint64_t sched_seed = 0;  // the UniformAdversary's PRNG
  std::uint64_t plan_seed = 0;   // fault::random_plan (chaos_lin only)

  friend bool operator==(const TrialSpec&, const TrialSpec&) = default;
};

/// Trial `index` of the stream a seed defines: a pure function of
/// (seed, index), so every run of a seed sees the same trials in order.
[[nodiscard]] inline TrialSpec trial_spec(std::uint64_t seed,
                                          std::int64_t index) {
  const std::uint64_t base = blunt::exp::derive_seed(
      blunt::exp::SeedDerivation::kSplitMix64, seed, index);
  return {blunt::exp::splitmix64(base ^ 1), blunt::exp::splitmix64(base ^ 2),
          blunt::exp::splitmix64(base ^ 3)};
}

// -- Order statistics ---------------------------------------------------------

/// A tail percentile is reported only with at least this many samples beyond
/// it; fewer would measure a handful of outliers (OS preemption, page
/// faults) rather than the program.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile p in (0, 100) of `samples`, or nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond its rank. Works in place
/// (reorders `samples`), so a run's analysis allocates nothing.
[[nodiscard]] inline std::optional<double> percentile(std::span<float> samples,
                                                      double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

/// Median of a small set of repeated measurements (set-up times, batch
/// times, solves): the central value, not a tail, so no sample floor.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// -- Game layer probe ---------------------------------------------------------

/// Forwards to `inner` and times every expand() call from outside, so
/// game::solve's own memo and Rational work is the remainder of the solve.
/// Transparent: the solver sees exactly the inner model's states.
class TimedGame final : public blunt::game::GameModel {
 public:
  explicit TimedGame(const blunt::game::GameModel& inner) : inner_(inner) {}

  [[nodiscard]] std::string initial() const override {
    return inner_.initial();
  }
  [[nodiscard]] blunt::game::Expansion expand(
      const std::string& state) const override {
    const std::int64_t t0 = now_ns();
    blunt::game::Expansion e = inner_.expand(state);
    expand_ns_ += now_ns() - t0;
    ++calls_;
    key_bytes_ += static_cast<std::int64_t>(state.size());
    return e;
  }

  [[nodiscard]] std::int64_t calls() const { return calls_; }
  [[nodiscard]] std::int64_t expand_ns() const { return expand_ns_; }
  /// Total length of the state encodings expanded (each state once).
  [[nodiscard]] std::int64_t key_bytes() const { return key_bytes_; }

 private:
  const blunt::game::GameModel& inner_;
  mutable std::int64_t calls_ = 0;
  mutable std::int64_t expand_ns_ = 0;
  mutable std::int64_t key_bytes_ = 0;
};

// -- Memory -------------------------------------------------------------------

/// Peak resident set size of this process in bytes (VmHWM).
[[nodiscard]] std::int64_t peak_rss_bytes();
/// Current resident set size in bytes (/proc/self/statm).
[[nodiscard]] std::int64_t current_rss_bytes();

}  // namespace perfbench
