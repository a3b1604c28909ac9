// Tests for the exact game solver and the weakener game models — the
// quantitative reproduction of Appendix A.
#include "game/solver.hpp"

#include <gtest/gtest.h>

#include "game/abd_phase_game.hpp"
#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

// A tiny configurable game over states named by strings:
//   "root" -> adversary picks "L" or "R"; "L" -> chance over "L0"/"L1";
//   terminals carry fixed values.
class MiniGame final : public GameModel {
 public:
  std::string initial() const override { return "root"; }

  Expansion expand(const std::string& s) const override {
    Expansion e;
    if (s == "root") {
      e.kind = Expansion::Kind::kAdversary;
      e.next = {"L", "R"};
      e.labels = {"go-left", "go-right"};
    } else if (s == "L") {
      e.kind = Expansion::Kind::kChance;
      e.next = {"L0", "L1"};
    } else if (s == "L0") {
      e.kind = Expansion::Kind::kTerminal;
      e.terminal_value = Rational(1);
    } else if (s == "L1") {
      e.kind = Expansion::Kind::kTerminal;
      e.terminal_value = Rational(0);
    } else {  // "R"
      e.kind = Expansion::Kind::kTerminal;
      e.terminal_value = Rational(1, 3);
    }
    return e;
  }
};

TEST(Solver, MaxOverAdversaryAverageOverChance) {
  // Left: E = 1/2; Right: 1/3. Adversary prefers left.
  MiniGame g;
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1, 2));
  EXPECT_GE(stats.states_visited, 4u);
}

TEST(Solver, StrategyExtractionFollowsArgmax) {
  MiniGame g;
  SolveStats stats;
  const Rational value = solve(g, &stats);
  const Solution sol = solve_with_strategy(g);
  // One memo serves the value, the state count and the line of play.
  EXPECT_EQ(sol.value, value);
  EXPECT_EQ(sol.stats.states_visited, stats.states_visited);
  EXPECT_EQ(sol.stats.expansions, stats.expansions);
  const auto& strategy = sol.strategy;
  ASSERT_FALSE(strategy.empty());
  EXPECT_EQ(strategy[0].label, "go-left");
  EXPECT_EQ(strategy[0].value, Rational(1, 2));
}

// Adversary AFTER the coin can match it; BEFORE it cannot. This is the
// information structure that makes strong adversaries strong.
class GuessGame final : public GameModel {
 public:
  explicit GuessGame(bool adversary_sees_coin) : sees_(adversary_sees_coin) {}

  std::string initial() const override { return sees_ ? "flip" : "guess"; }

  Expansion expand(const std::string& s) const override {
    Expansion e;
    if (s == "flip") {  // coin first, then guess with knowledge
      e.kind = Expansion::Kind::kChance;
      e.next = {"seen0", "seen1"};
    } else if (s == "guess") {  // guess first (encoded), then coin
      e.kind = Expansion::Kind::kAdversary;
      e.next = {"g0", "g1"};
    } else if (s == "seen0" || s == "seen1") {
      e.kind = Expansion::Kind::kAdversary;
      // Guess either value; win iff it matches the seen coin.
      const std::string coin = s.substr(4);
      e.next = {"win" + coin + "g0", "win" + coin + "g1"};
    } else if (s == "g0" || s == "g1") {
      e.kind = Expansion::Kind::kChance;
      const std::string guess = s.substr(1);
      e.next = {"win0g" + guess, "win1g" + guess};
    } else {  // "win<coin>g<guess>"
      e.kind = Expansion::Kind::kTerminal;
      e.terminal_value = (s[3] == s[5]) ? Rational(1) : Rational(0);
    }
    return e;
  }

 private:
  bool sees_;
};

TEST(Solver, InformationOrderMatters) {
  EXPECT_EQ(solve(GuessGame(/*adversary_sees_coin=*/true)), Rational(1));
  EXPECT_EQ(solve(GuessGame(/*adversary_sees_coin=*/false)), Rational(1, 2));
}

TEST(AtomicWeakener, ExactValueIsOneHalf) {
  // Appendix A.1: with atomic registers the strong adversary makes p2 loop
  // with probability exactly 1/2 — no more.
  AtomicWeakenerGame g;
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1, 2));
  EXPECT_GT(stats.states_visited, 50u);
}

TEST(AbdPhase, OriginalAbdLosesAlways) {
  // Appendix A.2: with plain ABD (k = 1) the adversary forces the bad
  // outcome with probability 1.
  AbdPhaseWeakenerGame g(1);
  EXPECT_EQ(solve(g), Rational(1));
}

TEST(AbdPhase, Abd2ValueIsExactlyFiveEighths) {
  // Appendix A.3.2 proves the adversary wins at most 5/8 against ABD²
  // (termination >= 3/8). The exact game value shows that bound is TIGHT.
  AbdPhaseWeakenerGame g(2);
  EXPECT_EQ(solve(g), Rational(5, 8));
}

TEST(AbdPhase, StrategyExtractionReachesTheCoin) {
  AbdPhaseWeakenerGame g(1);
  const auto strategy = solve_with_strategy(g, 400).strategy;
  bool flipped = false;
  for (const auto& e : strategy) {
    if (e.label.find("coin") != std::string::npos) flipped = true;
  }
  EXPECT_TRUE(flipped);
}

TEST(AtomicRounds, ValueIsOneMinusHalfPowT) {
  // The T-round weakener over atomic registers (Section 7's round-based
  // structure): the adversary's optimum is exactly 1 - (1/2)^T — per-round
  // coin matches are independent and drifting rounds add nothing.
  EXPECT_EQ(solve(AtomicRoundsWeakenerGame(1)), Rational(1, 2));
  EXPECT_EQ(solve(AtomicRoundsWeakenerGame(2)), Rational(3, 4));
  EXPECT_EQ(solve(AtomicRoundsWeakenerGame(3)), Rational(7, 8));
}

TEST(AtomicRounds, SingleRoundMatchesTheBaseGame) {
  EXPECT_EQ(solve(AtomicRoundsWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(AtomicRounds, RejectsBadRoundCounts) {
  EXPECT_DEATH(AtomicRoundsWeakenerGame(0), "rounds must be");
  EXPECT_DEATH(AtomicRoundsWeakenerGame(5), "rounds must be");
}

TEST(AbdPhase, RejectsBadK) {
  EXPECT_DEATH(AbdPhaseWeakenerGame(0), "k must be");
  EXPECT_DEATH(AbdPhaseWeakenerGame(9), "k must be");
}

}  // namespace
}  // namespace blunt::game
