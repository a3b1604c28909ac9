// Exact game model of Algorithm 1 (the weakener) over ATOMIC registers — the
// Appendix A.1 baseline.
//
// Every register operation is one indivisible adversary-scheduled step; p1's
// coin flip is a chance node. Solving the game yields
// Prob[P(O_a) → B] = 1/2 exactly: the strong adversary wins only by matching
// the coin against a read/write pattern it must half-commit before the flip
// (p1's write of R completes before the flip by program order).
#pragma once

#include "game/solver.hpp"

namespace blunt::game {

class AtomicWeakenerGame final : public LabeledGameModel {
 public:
  [[nodiscard]] std::string initial() const override;

 private:
  Expansion expand_into(const std::string& state,
                        std::vector<std::string>* labels) const override;
};

/// The T-round weakener over atomic registers (programs/rounds.hpp): T
/// communication-closed copies of Algorithm 1 over fresh registers; the bad
/// outcome is ANY round tripping its test. The exact value is
/// 1 − (1/2)^T — per-round wins are independent optimal coin-matches, and
/// drifting rounds give the adversary nothing extra — which validates the
/// Section 7 per-round composition exactly (in the atomic case).
class AtomicRoundsWeakenerGame final : public LabeledGameModel {
 public:
  /// 1 <= rounds <= 3 (state size).
  explicit AtomicRoundsWeakenerGame(int rounds);

  [[nodiscard]] std::string initial() const override;

 private:
  Expansion expand_into(const std::string& state,
                        std::vector<std::string>* labels) const override;

  int rounds_;
};

}  // namespace blunt::game
