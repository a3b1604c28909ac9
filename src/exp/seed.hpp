// Counter-based per-trial seed derivation for the experiment engine.
//
// Parallel Monte Carlo is deterministic only if the RNG stream a trial sees
// is a pure function of (experiment_seed, trial_index) — never of which
// worker thread ran it, how shards were stolen, or how many threads exist.
// The engine therefore derives every trial seed through a stateless
// SplitMix64-style mix of the experiment seed and the trial counter: no
// shared RNG, no per-thread state, nothing to contend on.
//
// Two derivations exist:
//
//   kSplitMix64  — trial_seed = splitmix64(experiment_seed, trial_index).
//                  The default for new experiments: adjacent trial indices
//                  land in statistically unrelated parts of the seed space.
//   kLinear      — trial_seed = experiment_seed + trial_index.
//                  The degenerate counter derivation. The experiments ported
//                  from standalone benches use it so their per-trial coin
//                  seeds stay the historical `trial index` values and their
//                  reports remain bit-for-bit reproducible. Still a pure function of
//                  (experiment_seed, trial_index), so every determinism
//                  guarantee holds identically.
#pragma once

#include <cstdint>

namespace blunt::exp {

/// One round of the SplitMix64 output function (Steele, Lea, Flood 2014) —
/// the standard statelessly-splittable mix used by counter-based PRNGs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class SeedDerivation {
  kSplitMix64,
  kLinear,
};

/// The trial seed for (experiment_seed, trial_index) under `d`. Pure and
/// branch-deterministic: the same pair always yields the same seed on every
/// thread count, platform, and run.
[[nodiscard]] constexpr std::uint64_t derive_seed(SeedDerivation d,
                                                  std::uint64_t experiment_seed,
                                                  std::int64_t trial_index) {
  const auto i = static_cast<std::uint64_t>(trial_index);
  switch (d) {
    case SeedDerivation::kLinear:
      return experiment_seed + i;
    case SeedDerivation::kSplitMix64:
    default:
      // Mix the seed through one round first so (seed, index) and
      // (seed + 1, index - 1) cannot collide the way raw addition would.
      return splitmix64(splitmix64(experiment_seed) ^ i);
  }
}

}  // namespace blunt::exp
