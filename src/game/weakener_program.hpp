// The weakener program (Algorithm 1) around its four object operations, as
// the ABD^k, VA^k and Snapshot^k game models share it: ops 0 and 1 are p0's
// and p1's writes (updates), ops 2 and 3 p2's reads (scans), op 3 after op 2.
// p1 flips once op 1 is done, then writes the coin to the atomic register C;
// p2 reads C once op 3 is done. Each model's State has op[o].stage, coin
// (-1 = undrawn), flip_pending, c_written and cl (-3 = unread, -1 = C's
// initial value); `done` is its finished-op stage. The register games
// (ABD^k, VA^k) also share the pair type, the written values and the outcome.
#pragma once

#include <cstdint>
#include <optional>

#include "game/packed_state.hpp"

namespace blunt::game {

constexpr int kOps = 4;  // p0's and p1's writes, then p2's two reads
constexpr int kOpPid[kOps] = {0, 1, 2, 2};
constexpr bool op_is_read(int o) { return o >= 2; }

// (value, timestamp) with value -2 = ⊥.
struct Pair {
  std::int32_t val = -2;
  std::int32_t num = 0;
  std::int32_t pid = 0;

  [[nodiscard]] bool ts_less(const Pair& o) const {
    return num != o.num ? num < o.num : pid < o.pid;
  }
  [[nodiscard]] bool ts_leq(const Pair& o) const {
    return ts_less(o) || (num == o.num && pid == o.pid);
  }
  friend bool operator==(const Pair&, const Pair&) = default;
};

// Value each register write installs; reads install their chosen pair.
constexpr int kOpWriteValue[kOps] = {0, 1, -1, -1};
constexpr const char* kRegisterOpName[kOps] = {"W0", "W1", "R1", "R2"};

/// Resets a finished op to its canonical form, dead fields zeroed, so that
/// states differing only in them merge in the memo.
template <class Op>
void finish_op(Op& op, std::int32_t done) {
  op = Op{};
  op.stage = done;
}

/// Is op `o` active (its client code is running)?
template <class State>
[[nodiscard]] bool op_active(const State& st, int o, std::int32_t done) {
  if (st.op[static_cast<std::size_t>(o)].stage == done) return false;
  return o != 3 || st.op[2].stage == done;  // the second read after the first
}

/// p1's pending coin flip: a chance node over 0 and 1. False if none.
template <class State>
bool expand_coin(const State& st, Expansion& e, Moves<State>& moves) {
  if (st.flip_pending == 0) return false;
  e.kind = Expansion::Kind::kChance;
  for (int v = 0; v < 2; ++v) {
    State nx = st;
    nx.flip_pending = 0;
    nx.coin = v;
    moves.add(nx, "coin=", v);
  }
  return true;
}

/// The program's own steps: p1's flip and its write of C, p2's read of C.
template <class State>
void add_program_steps(const State& st, std::int32_t done,
                       Moves<State>& moves) {
  if (st.op[1].stage == done && st.coin == -1) {
    State nx = st;
    nx.flip_pending = 1;
    moves.add(nx, "p1 flips the coin");
  }
  if (st.coin != -1 && st.c_written == 0) {
    State nx = st;
    nx.c_written = 1;
    moves.add(nx, "p1: C := coin");
  }
  if (st.op[3].stage == done && st.cl == -3) {
    State nx = st;
    nx.cl = st.c_written != 0 ? st.coin : -1;
    moves.add(nx, "p2: c := C");
  }
}

/// The value of a register game's state once it is decided, else nullopt.
/// The outcome set B is u1 = c ∧ u2 = 1 − c with the coin relayed intact
/// through C (u1/u2 = -3 unset, -2 ⊥); once enough locals are fixed the
/// value is decided (for a win the adversary must and always can relay the
/// coin).
template <class State>
[[nodiscard]] std::optional<Rational> register_outcome(const State& st) {
  if (st.cl != -3) {
    const bool bad = (st.cl == 0 || st.cl == 1) && st.u1 == st.cl &&
                     st.u2 == 1 - st.cl;
    return Rational(bad ? 1 : 0);
  }
  if (st.u1 == -2) return Rational(0);  // u1 = ⊥ can never match the coin
  if (st.u1 != -3 && st.u2 != -3) {
    if (!((st.u1 == 0 && st.u2 == 1) || (st.u1 == 1 && st.u2 == 0))) {
      return Rational(0);
    }
    // Both reads fixed, coin known: the adversary wins iff u1 == coin (it
    // relays the coin through C; otherwise it loses regardless).
    if (st.coin != -1) return Rational(st.u1 == st.coin ? 1 : 0);
  }
  if (st.u1 != -3 && st.coin != -1 && st.u1 != st.coin) return Rational(0);
  return std::nullopt;
}

}  // namespace blunt::game
