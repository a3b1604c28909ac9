// Tests for the Vitanyi–Awerbuch weakener game: exact values and structure.
#include "game/va_game.hpp"

#include <gtest/gtest.h>

#include "game/abd_phase_game.hpp"
#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

TEST(VaPhase, ExactValueIsAtomicForEveryK) {
  // Beyond-paper: the weakener gains nothing against VA — the exact optimal
  // adversary value equals the atomic 1/2 for every k. (A VA write's tail is
  // a single atomic step, so the adversary cannot split its visibility
  // across replicas after observing the coin, unlike ABD's update phase.)
  const std::size_t states[] = {940, 5421, 12692};
  for (const int k : {1, 2, 3}) {
    SolveStats stats;
    EXPECT_EQ(solve(VaPhaseWeakenerGame(k), &stats), Rational(1, 2))
        << "k=" << k;
    EXPECT_EQ(stats.states_visited, states[k - 1]) << "k=" << k;
  }
}

TEST(VaPhase, MatchesAtomicGameValue) {
  EXPECT_EQ(solve(VaPhaseWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(VaPhase, StrictlyBelowAbdAtEveryK) {
  // The same program over ABD^k is strictly worse: object choice matters.
  for (const int k : {1, 2, 3}) {
    EXPECT_LT(solve(VaPhaseWeakenerGame(k)),
              solve(AbdPhaseWeakenerGame(k)))
        << "k=" << k;
  }
}

TEST(VaPhase, StateSpaceIsSmall) {
  SolveStats stats;
  (void)solve(VaPhaseWeakenerGame(2), &stats);
  EXPECT_LT(stats.states_visited, 100000u);
  EXPECT_GT(stats.states_visited, 1000u);
}

TEST(VaPhase, RejectsBadK) {
  EXPECT_DEATH(VaPhaseWeakenerGame(0), "k must be");
  EXPECT_DEATH(VaPhaseWeakenerGame(7), "k must be");
}

}  // namespace
}  // namespace blunt::game
