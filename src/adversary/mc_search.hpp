// Monte-Carlo trial instances.
//
// A uniformly random scheduler is an (oblivious, weak) adversary; running it
// over many coin seeds gives an empirical LOWER bound on Prob[P(O) → B] and —
// more interestingly — a contrast exhibit: random scheduling almost never
// realizes the bad outcome that a crafted strong adversary (Figure 1) forces
// with probability 1. Exact values come from src/game; the registered
// experiments (src/exp) run these instances as their trial bodies.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/world.hpp"

namespace blunt::adversary {

/// One freshly-built Monte-Carlo trial: a world plus its bad-outcome
/// predicate. `owned` keeps the shared objects alive.
struct McInstance {
  std::unique_ptr<sim::World> world;
  std::function<bool()> bad;
  std::vector<std::shared_ptr<void>> owned;
};

}  // namespace blunt::adversary
