// Exact phase-level game model of the weakener (Algorithm 1) over ABD^k —
// the Appendix A.2 / A.3 analysis made executable.
//
// Granularity. The model exposes to the adversary exactly the protocol
// freedoms the paper's case analysis quantifies over:
//   * when each replica answers each query (a reply captures the replica's
//     state at answer time),
//   * which quorum of captured replies a query phase uses (any subset of
//     size >= 2; the result is the max-timestamp pair in it),
//   * when each replica processes each update (applying it iff newer),
//   * when each phase completes, and when program steps run.
// This is the fine-grained ABD semantics modulo two sound reductions:
// queries don't change replica state (so query-arrival and reply-generation
// merge into one "capture" move), and undelivered replies never influence a
// client (so "finish with subset S" covers every delivery schedule).
//
// The C register is modeled as atomic. For this program that loses the
// adversary nothing: its only use of C is to pass the coin to p2 intact,
// which an ABD C achieves under prompt deliveries; every abstract C schedule
// is realizable with the real C. See DESIGN.md.
//
// Object random steps (the choice among k preamble iterations, Algorithm 4)
// and p1's program coin are chance nodes; the adversary decides *when* they
// fire but not their outcomes, and its later moves may depend on outcomes
// already fired — the strong adversary of Section 2.4.
//
// Expected values (reproduced by tests and the abd_k_sweep experiment):
//   k = 1: value 1   — the Figure 1 adversary forces nontermination.
//   k = 2: value in [1/2, 5/8] — Appendix A.3.2 bounds the adversary by 5/8;
//          the exact game value pins the true optimum at this granularity.
#pragma once

#include "game/solver.hpp"

namespace blunt::game {

class AbdPhaseWeakenerGame final : public GameModel {
 public:
  /// k = preamble iterations (1 = original ABD). 1 <= k <= 4 (state size).
  explicit AbdPhaseWeakenerGame(int k);

  [[nodiscard]] std::string initial() const override;
  [[nodiscard]] Expansion expand(const std::string& state) const override;

  [[nodiscard]] int k() const { return k_; }

 private:
  int k_;
};

}  // namespace blunt::game
