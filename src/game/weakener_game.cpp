#include "game/weakener_game.hpp"

#include <array>
#include <vector>

#include "common/assert.hpp"
#include "game/packed_state.hpp"

namespace blunt::game {

namespace {

// Register values: -2 = ⊥ (R's initial), -1 = C's initial, 0/1 written.
struct State {
  std::int32_t pc0 = 0;  // p0: 0 = to write R:=0, 1 = done
  std::int32_t pc1 = 0;  // p1: 0 = write R:=1, 1 = flip, 2 = write C, 3 done
  std::int32_t pc2 = 0;  // p2: 0 = read u1, 1 = read u2, 2 = read C, 3 done
  std::int32_t r = -2;   // register R
  std::int32_t c = -1;   // register C
  std::int32_t u1 = -3;  // p2 locals (-3 = unset)
  std::int32_t u2 = -3;
  std::int32_t cl = -3;
  std::int32_t coin = -3;     // p1's flip result
  std::int32_t flipping = 0;  // chance node marker

  [[nodiscard]] bool all_done() const {
    return pc0 == 1 && pc1 == 3 && pc2 == 3;
  }

  /// The bad outcome B: u1 = c ∧ u2 = 1 − c (p2 loops forever).
  [[nodiscard]] bool bad() const {
    return (cl == 0 || cl == 1) && u1 == cl && u2 == 1 - cl;
  }
};

}  // namespace

std::string AtomicWeakenerGame::initial() const { return pack(State{}); }

Expansion AtomicWeakenerGame::expand_into(
    const std::string& encoded, std::vector<std::string>* labels) const {
  const auto st = unpack<State>(encoded);
  Expansion e;
  Moves<State> moves(e, labels);

  if (st.flipping != 0) {
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      State nx = st;
      nx.flipping = 0;
      nx.coin = v;
      nx.pc1 = 2;
      moves.add(nx, "coin=", v);
    }
    return e;
  }

  if (st.all_done()) {
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = st.bad() ? Rational(1) : Rational(0);
    return e;
  }

  e.kind = Expansion::Kind::kAdversary;

  if (st.pc0 == 0) {
    State nx = st;
    nx.r = 0;
    nx.pc0 = 1;
    moves.add(nx, "p0: R:=0");
  }
  if (st.pc1 < 3) {
    State nx = st;
    switch (st.pc1) {
      case 0:
        nx.r = 1;
        nx.pc1 = 1;
        moves.add(nx, "p1: R:=1");
        break;
      case 1:
        nx.flipping = 1;
        moves.add(nx, "p1: flip");
        break;
      default:
        nx.c = st.coin;
        nx.pc1 = 3;
        moves.add(nx, "p1: C:=coin");
    }
  }
  if (st.pc2 < 3) {
    State nx = st;
    nx.pc2 = st.pc2 + 1;
    switch (st.pc2) {
      case 0:
        nx.u1 = st.r;
        moves.add(nx, "p2: u1:=R");
        break;
      case 1:
        nx.u2 = st.r;
        moves.add(nx, "p2: u2:=R");
        break;
      default:
        nx.cl = st.c;
        moves.add(nx, "p2: c:=C");
    }
  }
  BLUNT_ASSERT(!e.next.empty(),
               "AtomicWeakenerGame stuck (no moves, not all done)");
  return e;
}

namespace {

constexpr int kMaxRounds = 3;

// Per-process program counters index the round they are in plus an
// inner step; registers and locals are per round.
struct RoundsState {
  // p0: round index (a write of 0 per round), done when == rounds.
  std::int32_t pc0 = 0;
  // p1: round*3 + {0: write R, 1: flip, 2: write C}.
  std::int32_t pc1 = 0;
  // p2: round*3 + {0: read u1, 1: read u2, 2: read C}.
  std::int32_t pc2 = 0;
  std::array<std::int32_t, kMaxRounds> r{};     // R[t]; -2 = ⊥
  std::array<std::int32_t, kMaxRounds> c{};     // C[t]; -1 initial
  std::array<std::int32_t, kMaxRounds> u1{};    // -3 = unset
  std::array<std::int32_t, kMaxRounds> u2{};
  std::array<std::int32_t, kMaxRounds> cl{};
  std::array<std::int32_t, kMaxRounds> coin{};  // -3 = undrawn
  std::int32_t flipping = 0;

  RoundsState() {
    r.fill(-2);
    c.fill(-1);
    u1.fill(-3);
    u2.fill(-3);
    cl.fill(-3);
    coin.fill(-3);
  }

  [[nodiscard]] bool round_bad(int t) const {
    const auto ut = static_cast<std::size_t>(t);
    return (cl[ut] == 0 || cl[ut] == 1) && u1[ut] == cl[ut] &&
           u2[ut] == 1 - cl[ut];
  }
};

}  // namespace

AtomicRoundsWeakenerGame::AtomicRoundsWeakenerGame(int rounds)
    : rounds_(rounds) {
  BLUNT_ASSERT(rounds >= 1 && rounds <= kMaxRounds,
               "rounds must be in [1," << kMaxRounds << "]");
}

std::string AtomicRoundsWeakenerGame::initial() const {
  return pack(RoundsState{});
}

Expansion AtomicRoundsWeakenerGame::expand_into(
    const std::string& encoded, std::vector<std::string>* labels) const {
  const auto st = unpack<RoundsState>(encoded);
  Expansion e;
  Moves<RoundsState> moves(e, labels);

  if (st.flipping != 0) {
    const int t = st.pc1 / 3;
    e.kind = Expansion::Kind::kChance;
    for (int v = 0; v < 2; ++v) {
      RoundsState nx = st;
      nx.flipping = 0;
      nx.coin[static_cast<std::size_t>(t)] = v;
      ++nx.pc1;
      moves.add(nx, "coin[", t, "]=", v);
    }
    return e;
  }

  const bool done = st.pc0 == rounds_ && st.pc1 == 3 * rounds_ &&
                    st.pc2 == 3 * rounds_;
  if (done) {
    bool bad = false;
    for (int t = 0; t < rounds_; ++t) bad = bad || st.round_bad(t);
    e.kind = Expansion::Kind::kTerminal;
    e.terminal_value = bad ? Rational(1) : Rational(0);
    return e;
  }

  e.kind = Expansion::Kind::kAdversary;

  if (st.pc0 < rounds_) {
    RoundsState nx = st;
    nx.r[static_cast<std::size_t>(st.pc0)] = 0;
    ++nx.pc0;
    moves.add(nx, "p0: R[t]:=0");
  }
  if (st.pc1 < 3 * rounds_) {
    const int t = st.pc1 / 3;
    const auto ut = static_cast<std::size_t>(t);
    RoundsState nx = st;
    switch (st.pc1 % 3) {
      case 0:
        nx.r[ut] = 1;
        ++nx.pc1;
        moves.add(nx, "p1: R[t]:=1");
        break;
      case 1:
        nx.flipping = 1;
        moves.add(nx, "p1: flip");
        break;
      case 2:
        nx.c[ut] = st.coin[ut];
        ++nx.pc1;
        moves.add(nx, "p1: C[t]:=coin");
        break;
    }
  }
  if (st.pc2 < 3 * rounds_) {
    const int t = st.pc2 / 3;
    const auto ut = static_cast<std::size_t>(t);
    RoundsState nx = st;
    switch (st.pc2 % 3) {
      case 0:
        nx.u1[ut] = st.r[ut];
        break;
      case 1:
        nx.u2[ut] = st.r[ut];
        break;
      case 2:
        nx.cl[ut] = st.c[ut];
        break;
    }
    ++nx.pc2;
    moves.add(nx, "p2 step");
  }
  BLUNT_ASSERT(!e.next.empty(), "rounds game stuck");
  return e;
}

}  // namespace blunt::game
