// Tests for the exact game solver and the weakener game models — the
// quantitative reproduction of Appendix A.
#include "game/solver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "game/abd_phase_game.hpp"
#include "game/packed_state.hpp"
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

  std::vector<std::string> move_labels(const std::string& s) const override {
    if (s == "root") return {"go-left", "go-right"};
    return {};
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

// Variable-length keys that are prefixes of one another ("1", "10", "100")
// stay distinct memo entries, and the repeated ones are memo hits.
class PrefixKeyGame final : public GameModel {
 public:
  std::string initial() const override { return "root"; }

  Expansion expand(const std::string& s) const override {
    Expansion e;
    if (s == "root") {
      e.kind = Expansion::Kind::kChance;
      e.next = {"1", "10", "100", "1", "10", "100"};
    } else {
      e.terminal_value =
          s == "1" ? Rational(1) : s == "10" ? Rational(0) : Rational(1, 3);
    }
    return e;
  }
};

TEST(Solver, MemoKeysThatArePrefixesStayDistinct) {
  SolveStats stats;
  EXPECT_EQ(solve(PrefixKeyGame{}, &stats), Rational(4, 9));
  EXPECT_EQ(stats.states_visited, 4u);
  EXPECT_EQ(stats.expansions, 4u);
  EXPECT_EQ(stats.memo_probes, 7u);  // the root and its six outcomes
  EXPECT_EQ(stats.memo_hits, 3u);    // the second "1", "10" and "100"
}

// Stand-ins for a model's private state struct: packing sees only int32
// fields, so any struct of the same size reads the same keys.
struct TwoFields {
  std::int32_t a = 0;
  std::int32_t b = 0;
};
struct AbdFields {
  std::array<std::int32_t, 128> f{};
};

TEST(PackedState, OneSignedBytePerField) {
  const std::string key = pack(TwoFields{-128, 127});
  EXPECT_EQ(key, std::string("\x80\x7f", 2));
  const auto back = unpack<TwoFields>(key);
  EXPECT_EQ(back.a, -128);
  EXPECT_EQ(back.b, 127);
}

TEST(PackedState, RoundTripsEveryReachableAbdState) {
  // Every state of the k = 1 ABD game: unpacking a key and packing it again
  // reproduces the key, and every key is 128 bytes (32 fields per op, no
  // padding field).
  const AbdPhaseWeakenerGame g(1);
  std::unordered_set<std::string> seen{g.initial()};
  std::deque<std::string> frontier{g.initial()};
  while (!frontier.empty()) {
    const std::string key = frontier.front();
    frontier.pop_front();
    ASSERT_EQ(key.size(), 128u);
    ASSERT_EQ(pack(unpack<AbdFields>(key)), key);
    for (const std::string& next : g.expand(key).next) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  EXPECT_EQ(seen.size(), 155311u);  // the solver's state count
}

TEST(PackedState, OutOfRangeFieldTripsTheRangeCheck) {
  EXPECT_DEATH((void)pack(TwoFields{0, 128}), "outside \\[-128, 127\\]");
  EXPECT_DEATH((void)pack(TwoFields{-129, 0}), "outside \\[-128, 127\\]");
  EXPECT_DEATH((void)unpack<TwoFields>("abc"), "packed game state of 3");
}

TEST(AtomicWeakener, ExactValueIsOneHalf) {
  // Appendix A.1: with atomic registers the strong adversary makes p2 loop
  // with probability exactly 1/2 — no more.
  AtomicWeakenerGame g;
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1, 2));
  EXPECT_GT(stats.states_visited, 50u);
  EXPECT_EQ(stats.states_visited, 289u);
}

TEST(AbdPhase, OriginalAbdLosesAlways) {
  // Appendix A.2: with plain ABD (k = 1) the adversary forces the bad
  // outcome with probability 1.
  AbdPhaseWeakenerGame g(1);
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(1));
  EXPECT_EQ(stats.states_visited, 155311u);
  EXPECT_EQ(stats.expansions, 155311u);
  // Every lookup either hits or expands (and then stores) a new state.
  EXPECT_EQ(stats.memo_probes, stats.memo_hits + stats.states_visited);
}

TEST(AbdPhase, Abd2ValueIsExactlyFiveEighths) {
  // Appendix A.3.2 proves the adversary wins at most 5/8 against ABD²
  // (termination >= 3/8). The exact game value shows that bound is TIGHT.
  AbdPhaseWeakenerGame g(2);
  SolveStats stats;
  EXPECT_EQ(solve(g, &stats), Rational(5, 8));
  EXPECT_EQ(stats.states_visited, 598306u);
  EXPECT_EQ(stats.expansions, 598306u);
  EXPECT_EQ(stats.max_depth, 59);
  EXPECT_EQ(stats.memo_hits, 1780294u);
  EXPECT_EQ(stats.memo_probes, 2378600u);
}

TEST(AbdPhase, Abd2StrategyLineIsPinned) {
  // The first 18 moves of the extracted optimal ABD² line of play (the
  // abd_k_sweep printout), labels and subtree values byte for byte.
  const Solution sol = solve_with_strategy(AbdPhaseWeakenerGame(2), 18);
  const std::vector<std::string> want = {
      "W0 query reply from n0",
      "W0 query reply from n1",
      "W1 query reply from n0",
      "W1 query reply from n1",
      "W1 query reply from n2",
      "W1 query phase 0 -> (v=-2,ts=(0,0))",
      "W1 query reply from n0",
      "W1 query reply from n1",
      "W1 query reply from n2",
      "W1 query phase 1 -> (v=-2,ts=(0,0))",
      "W1 draws its iteration choice",
      "W1 uses iteration 0",
      "W1 update at n0",
      "R1 query reply from n0",
      "R1 query reply from n1",
      "W1 update at n1",
      "W1 returns",
      "p1 flips the coin",
  };
  ASSERT_EQ(sol.strategy.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sol.strategy[i].label, want[i]) << "move " << i;
    EXPECT_EQ(sol.strategy[i].value, Rational(5, 8)) << "move " << i;
    EXPECT_EQ(sol.strategy[i].chance, i == 11) << "move " << i;
    EXPECT_EQ(sol.strategy[i].outcome, i == 11 ? 0 : -1) << "move " << i;
  }
  EXPECT_EQ(sol.stats.states_visited, 598306u);
}

TEST(AbdPhase, Abd3ValueIsExactlyFiveNinths) {
  // The closed form 1/2 + 1/(2k²) at its second fitted point, k = 3.
  SolveStats stats;
  EXPECT_EQ(solve(AbdPhaseWeakenerGame(3), &stats), Rational(5, 9));
  EXPECT_EQ(stats.states_visited, 1914598u);
  EXPECT_EQ(stats.expansions, 1914598u);
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
  const Rational want[] = {Rational(1, 2), Rational(3, 4), Rational(7, 8)};
  const std::size_t states[] = {289, 16438, 808438};
  for (const int t : {1, 2, 3}) {
    SolveStats stats;
    EXPECT_EQ(solve(AtomicRoundsWeakenerGame(t), &stats), want[t - 1])
        << "T=" << t;
    EXPECT_EQ(stats.states_visited, states[t - 1]) << "T=" << t;
  }
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
