// Tests for the exhaustive replay explorer.
#include "adversary/explorer.hpp"

#include <gtest/gtest.h>

#include "game/solver.hpp"
#include "game/weakener_game.hpp"
#include "mem/base_register.hpp"
#include "objects/atomic.hpp"
#include "programs/weakener.hpp"
#include "sim/coin.hpp"

namespace blunt::adversary {
namespace {

// Factory: single process guessing a coin; bad iff the guess (the coin)
// equals 0. No scheduling freedom — value is exactly 1/2.
Instance coin_only_factory(std::vector<int> coins) {
  Instance inst = make_instance(std::move(coins));
  auto result = std::make_shared<int>(-1);
  inst.world->add_process("p", [result](sim::Proc p) -> sim::Task<void> {
    *result = co_await p.random(2, "flip");
  });
  inst.bad = [result] { return *result == 0; };
  inst.owned.push_back(result);
  return inst;
}

TEST(Explorer, PureChanceValue) {
  const ExplorerResult r = explore(coin_only_factory);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.value, Rational(1, 2));
  EXPECT_EQ(r.executions, 2);
}

// Two processes race on a base register; bad iff the reader sees the write.
// Some schedule realizes it, so the sup is 1.
Instance race_factory(std::vector<int> coins) {
  Instance inst = make_instance(std::move(coins));
  auto reg = std::make_shared<mem::BaseRegister>("r", sim::Value{});
  auto seen = std::make_shared<sim::Value>();
  inst.world->add_process("writer", [reg](sim::Proc p) -> sim::Task<void> {
    co_await reg->write(p, sim::Value(std::int64_t{1}));
  });
  inst.world->add_process("reader",
                          [reg, seen](sim::Proc p) -> sim::Task<void> {
                            *seen = co_await reg->read(p);
                          });
  inst.bad = [seen] { return *seen == sim::Value(std::int64_t{1}); };
  inst.owned.push_back(reg);
  inst.owned.push_back(seen);
  return inst;
}

TEST(Explorer, SupOverSchedules) {
  const ExplorerResult r = explore(race_factory);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.value, Rational(1));
  EXPECT_GT(r.executions, 1);
}

// Coin then race: bad iff reader's view matches the coin. The adversary
// schedules the read after seeing the coin => sup is 1.
Instance adaptive_factory(std::vector<int> coins) {
  Instance inst = make_instance(std::move(coins));
  auto reg = std::make_shared<mem::BaseRegister>("r", sim::Value{});
  auto seen = std::make_shared<sim::Value>();
  auto coin = std::make_shared<int>(-1);
  inst.world->add_process("flipper",
                          [coin](sim::Proc p) -> sim::Task<void> {
                            *coin = co_await p.random(2, "flip");
                          });
  inst.world->add_process("writer", [reg](sim::Proc p) -> sim::Task<void> {
    co_await reg->write(p, sim::Value(std::int64_t{1}));
  });
  inst.world->add_process("reader",
                          [reg, seen](sim::Proc p) -> sim::Task<void> {
                            *seen = co_await reg->read(p);
                          });
  inst.bad = [seen, coin] {
    const std::int64_t want = *coin;
    const sim::Value got = *seen;
    if (want == 0) return sim::is_bottom(got);
    return got == sim::Value(std::int64_t{1});
  };
  inst.owned = {reg, seen, coin};
  return inst;
}

TEST(Explorer, StrongAdversaryAdaptsToObservedCoins) {
  const ExplorerResult r = explore(adaptive_factory);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.value, Rational(1));
}

Instance atomic_weakener_factory(std::vector<int> coins) {
  Instance inst = make_instance(std::move(coins));
  auto r = std::make_shared<objects::AtomicRegister>("R", *inst.world,
                                                     sim::Value{});
  auto c = std::make_shared<objects::AtomicRegister>(
      "C", *inst.world, sim::Value(std::int64_t{-1}));
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*inst.world, *r, *c, *out);
  inst.bad = [out] { return out->looped(); };
  inst.owned = {r, c, out};
  return inst;
}

TEST(Explorer, AtomicWeakenerMatchesExactGame) {
  // The explorer's sup over all fine-grained schedules of the REAL simulator
  // equals the exact game value 1/2 (Appendix A.1) — two independent
  // implementations of Prob[P(O_a) → B] agreeing.
  const ExplorerResult r = explore(atomic_weakener_factory);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.value, Rational(1, 2));

  game::AtomicWeakenerGame g;
  EXPECT_EQ(game::solve(g), r.value);
}

TEST(Explorer, CollectsTerminalHistories) {
  ExplorerConfig cfg;
  cfg.collect_histories = true;
  const ExplorerResult r = explore(race_factory, cfg);
  EXPECT_EQ(static_cast<long>(r.histories.size()), r.executions);
  for (const lin::History& h : r.histories) {
    EXPECT_EQ(h.size(), 0);  // base registers record no invocations
  }
}

TEST(Explorer, TruncationIsReported) {
  ExplorerConfig cfg;
  cfg.max_nodes = 3;
  const ExplorerResult r = explore(atomic_weakener_factory, cfg);
  EXPECT_TRUE(r.truncated);
}

}  // namespace
}  // namespace blunt::adversary
