// Tests for the exact snapshot-weakener game (Section 5.2's object).
#include "game/snapshot_game.hpp"

#include <gtest/gtest.h>

#include "game/weakener_game.hpp"

namespace blunt::game {
namespace {

TEST(SnapshotGame, ExactValueIsAtomicForEveryK) {
  // The Afek double-collect discipline denies the snapshot-weakener
  // adversary any gain over atomic snapshots: exact value 1/2 at every k.
  const std::size_t states[] = {2688, 6487, 10524};
  for (const int k : {1, 2, 3}) {
    SolveStats stats;
    EXPECT_EQ(solve(SnapshotWeakenerGame(k), &stats), Rational(1, 2))
        << "k=" << k;
    EXPECT_EQ(stats.states_visited, states[k - 1]) << "k=" << k;
  }
}

TEST(SnapshotGame, MatchesAtomicWeakenerValue) {
  EXPECT_EQ(solve(SnapshotWeakenerGame(1)), solve(AtomicWeakenerGame{}));
}

TEST(SnapshotGame, StateSpaceGrowsWithK) {
  SolveStats s1, s3;
  (void)solve(SnapshotWeakenerGame(1), &s1);
  (void)solve(SnapshotWeakenerGame(3), &s3);
  EXPECT_GT(s3.states_visited, s1.states_visited);
  EXPECT_LT(s3.states_visited, 1000000u);
}

TEST(SnapshotGame, RejectsBadK) {
  EXPECT_DEATH(SnapshotWeakenerGame(0), "k must be");
  EXPECT_DEATH(SnapshotWeakenerGame(9), "k must be");
}

}  // namespace
}  // namespace blunt::game
