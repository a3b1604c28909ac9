// Ben-Or-style randomized binary consensus over shared registers — the kind
// of randomized program the paper's introduction is about (cf. Aspnes's
// survey [2]): safety (agreement, validity) is a safety property and is
// preserved by ANY linearizable register implementation; termination is
// probabilistic and is exactly what an adversary attacks.
//
// Round r, process i with current estimate v_i ∈ {0, 1}:
//   phase 1 (report):  P[r][i] := v_i; re-read P[r][*] until a quorum
//                      (⌈(n+1)/2⌉) has written. w := v if a quorum of the
//                      seen reports equals v, else w := "?".
//   phase 2 (propose): Q[r][i] := w; re-read Q[r][*] until a quorum has
//                      written. If a quorum of seen proposals equals some
//                      v ≠ "?": DECIDE v. Else if any proposal v ≠ "?":
//                      v_i := v. Else v_i := coin flip.
// A decided process writes its decision to D[i] and stops; undecided
// processes adopt any value they observe in D (decision gossip), which
// guarantees everyone decides at most one round after the first decision.
//
// The register plumbing is object-generic: instantiate the register arrays
// as atomic, ABD, ABD^k, or Vitanyi–Awerbuch registers and the same program
// runs unchanged. The consensus experiment measures rounds-to-decide across
// implementations; tests assert agreement/validity on every run.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "objects/register_object.hpp"
#include "sim/world.hpp"

namespace blunt::programs {

struct BenOrOutcome {
  /// Per process: decided value (-1 = undecided at the round cap).
  std::vector<int> decision;
  /// Per process: round (1-based) in which it decided, -1 if undecided.
  std::vector<int> decided_round;
  /// Total program coin flips.
  int coin_flips = 0;

  [[nodiscard]] bool all_decided() const;
  /// Agreement: every decided value equal.
  [[nodiscard]] bool agreement() const;
  /// Validity: every decided value was some process's input.
  [[nodiscard]] bool validity(const std::vector<int>& inputs) const;
};

/// Builds a register (written by anyone, read by anyone) with the given name
/// and ⊥ initial value; supplied by the caller so any implementation works.
using RegisterFactory =
    std::function<std::shared_ptr<objects::RegisterObject>(std::string name)>;

struct BenOrConfig {
  int num_processes = 3;
  int max_rounds = 8;  // round cap (processes stop undecided past it)
  std::vector<int> inputs;  // size num_processes, values in {0, 1}
};

/// Instantiates all register arrays via `make_reg` and installs the
/// processes (they must be the world's first `num_processes`). The returned
/// vector owns the registers; keep it alive for the run.
[[nodiscard]] std::vector<std::shared_ptr<objects::RegisterObject>>
install_ben_or(sim::World& w, const BenOrConfig& cfg,
               const RegisterFactory& make_reg, BenOrOutcome& out);

}  // namespace blunt::programs
