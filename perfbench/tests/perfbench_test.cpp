// Tests of the benchmark's own measurement code: the seeded trial
// generator, the tail-refusing percentile helper, and the expand()-timing
// game wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rational.hpp"
#include "game/abd_phase_game.hpp"
#include "game/solver.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<TrialSpec> stream(std::uint64_t seed, int count) {
  std::vector<TrialSpec> out;
  for (int i = 0; i < count; ++i) out.push_back(trial_spec(seed, i));
  return out;
}

TEST(TrialStream, SameSeedGivesSameTrials) {
  EXPECT_EQ(stream(7, 500), stream(7, 500));
}

TEST(TrialStream, DefaultSeedIsPinned) {
  // The default seed's pinned totals in workloads.cpp rest on these values.
  const TrialSpec t0 = trial_spec(1, 0);
  EXPECT_EQ(t0.coin_seed, 0x6c5795e14b3b7e33ull);
  EXPECT_EQ(t0.sched_seed, 0x1cf38a51a82265f3ull);
  EXPECT_EQ(t0.plan_seed, 0xdb538f85fe401082ull);
  const TrialSpec t1 = trial_spec(1, 1);
  EXPECT_EQ(t1.coin_seed, 0x7095beebd76575e4ull);
  EXPECT_EQ(t1.sched_seed, 0x449356e76b1ec655ull);
  EXPECT_EQ(t1.plan_seed, 0x7553c6a0f87f81beull);
}

TEST(TrialStream, SeedsAndTrialsDiffer) {
  const std::vector<TrialSpec> a = stream(1, 200);
  const std::vector<TrialSpec> b = stream(2, 200);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += a[i] == b[i] ? 1 : 0;
    EXPECT_NE(a[i].coin_seed, a[i].sched_seed);
    EXPECT_NE(a[i].sched_seed, a[i].plan_seed);
    if (i > 0) {
      EXPECT_NE(a[i].coin_seed, a[i - 1].coin_seed);
    }
  }
  EXPECT_EQ(same, 0);
}

std::vector<float> one_to(int n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0f);
  // Reverse so the helper cannot rely on sorted input.
  std::reverse(v.begin(), v.end());
  return v;
}

std::optional<double> percentile_of(std::vector<float> v, double p) {
  return percentile(v, p);
}

TEST(Percentile, NearestRankWithEnoughSamplesBeyond) {
  const std::optional<double> p99 = percentile_of(one_to(1000), 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // exactly 10 samples beyond
  const std::optional<double> p50 = percentile_of(one_to(20), 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 10.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile_of(one_to(999), 99).has_value());  // 9 beyond
  EXPECT_FALSE(percentile_of(one_to(19), 50).has_value());   // 9 beyond
  EXPECT_FALSE(percentile_of(one_to(100), 95).has_value());  // 5 beyond
  EXPECT_FALSE(percentile_of({}, 50).has_value());
}

TEST(Percentile, RejectsOutOfRangeP) {
  EXPECT_FALSE(percentile_of(one_to(5000), 0).has_value());
  EXPECT_FALSE(percentile_of(one_to(5000), 100).has_value());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

/// A small game with shared subgames: from "n" (n < 6) the adversary moves
/// to "n+1" or "n+2"; odd states are coin flips between them; "6" and "7"
/// are terminals worth 1 and 1/3.
class LadderGame final : public blunt::game::GameModel {
 public:
  [[nodiscard]] std::string initial() const override { return "0"; }
  [[nodiscard]] blunt::game::Expansion expand(
      const std::string& state) const override {
    const int n = std::stoi(state);
    blunt::game::Expansion e;
    if (n >= 6) {
      e.terminal_value = n == 6 ? blunt::Rational(1) : blunt::Rational(1, 3);
      return e;
    }
    e.kind = n % 2 == 1 ? blunt::game::Expansion::Kind::kChance
                        : blunt::game::Expansion::Kind::kAdversary;
    e.next = {std::to_string(n + 1), std::to_string(n + 2)};
    return e;
  }
};

void expect_transparent(const blunt::game::GameModel& model) {
  blunt::game::SolveStats direct_stats;
  const blunt::Rational direct = blunt::game::solve(model, &direct_stats);
  const TimedGame timed(model);
  blunt::game::SolveStats timed_stats;
  const blunt::Rational wrapped = blunt::game::solve(timed, &timed_stats);
  EXPECT_EQ(wrapped, direct);
  EXPECT_EQ(timed_stats.states_visited, direct_stats.states_visited);
  EXPECT_EQ(timed_stats.expansions, direct_stats.expansions);
  EXPECT_EQ(timed_stats.max_depth, direct_stats.max_depth);
  EXPECT_EQ(timed.calls(),
            static_cast<std::int64_t>(direct_stats.expansions));
  EXPECT_GE(timed.expand_ns(), 0);
  EXPECT_GE(timed.key_bytes(), timed.calls());  // every key is non-empty
}

TEST(TimedGame, TransparentOnASmallGame) {
  const LadderGame g;
  expect_transparent(g);
  const TimedGame timed(g);
  (void)blunt::game::solve(timed);
  EXPECT_EQ(timed.calls(), 8);      // states "0" .. "7", each once
  EXPECT_EQ(timed.key_bytes(), 8);  // one character each
}

TEST(TimedGame, TransparentOnTheAbdGame) {
  const blunt::game::AbdPhaseWeakenerGame g(1);
  expect_transparent(g);
}

}  // namespace
}  // namespace perfbench
