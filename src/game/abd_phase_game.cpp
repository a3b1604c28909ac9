#include "game/abd_phase_game.hpp"

#include <array>
#include <bit>
#include <vector>

#include "common/assert.hpp"
#include "game/packed_state.hpp"
#include "game/weakener_program.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 4;
constexpr int kNodes = 3;
constexpr int kQuorum = 2;

enum Stage : std::int32_t { kQuery = 0, kChoosing = 1, kUpdate = 2, kDone = 3 };

struct OpState {
  std::int32_t stage = kQuery;
  std::int32_t iter = 0;                // current query iteration
  std::int32_t replied = 0;             // nodes that replied in this phase
  std::int32_t processed = 0;           // nodes that processed the update
  std::array<Pair, kNodes> reply{};     // captured replies (where bit set)
  std::array<Pair, kMaxK> results{};    // finished iteration results
  Pair upd;                             // update payload
};

struct State {
  std::array<Pair, kNodes> node{};  // replica (val, ts)
  std::array<OpState, kOps> op{};
  std::int32_t coin = -1;            // -1 = undrawn
  std::int32_t flip_pending = 0;
  std::int32_t choice_pending = -1;  // op whose object random step is firing
  std::int32_t c_written = 0;        // p1 wrote C
  std::int32_t cl = -3;              // p2's read of C (-3 unset, -1 initial)
  std::int32_t u1 = -3;              // R1 result (-3 unset; -2 ⊥)
  std::int32_t u2 = -3;
};

// After a query result is fully chosen, enter the update stage. `chosen` is
// taken by value: it may alias op.results, which is cleared here.
void enter_update(State& st, int o, Pair chosen) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.stage = kUpdate;
  op.results = {};  // no longer needed: canonicalize
  op.iter = 0;
  if (op_is_read(o)) {
    op.upd = chosen;  // write-back
  } else {
    op.upd = Pair{kOpWriteValue[o], chosen.num + 1, kOpPid[o]};
  }
}

// Finish a query iteration with result `res`; advance to the next phase, the
// choice chance node, or directly to update (k == 1).
void finish_query(State& st, int o, const Pair& res, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.results[static_cast<std::size_t>(op.iter)] = res;
  ++op.iter;
  op.replied = 0;  // dead fields zeroed: a canonical form for the memo
  op.reply = {};
  if (op.iter < k) return;  // next query phase
  if (k == 1) {
    enter_update(st, o, op.results[0]);
  } else {
    op.stage = kChoosing;
  }
}

void finish_update(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  const std::int32_t v = op.upd.val;
  finish_op(op, kDone);
  if (o == 2) st.u1 = v;
  if (o == 3) st.u2 = v;
}

}  // namespace

AbdPhaseWeakenerGame::AbdPhaseWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string AbdPhaseWeakenerGame::initial() const { return pack(State{}); }

Expansion AbdPhaseWeakenerGame::expand_into(
    const std::string& encoded, std::vector<std::string>* labels) const {
  const auto st = unpack<State>(encoded);
  Expansion e;
  Moves<State> moves(e, labels);

  // -- Chance nodes --
  if (expand_coin(st, e, moves)) return e;
  if (st.choice_pending >= 0) {
    const int o = st.choice_pending;
    e.kind = Expansion::Kind::kChance;
    for (int j = 0; j < k_; ++j) {
      State nx = st;
      nx.choice_pending = -1;
      enter_update(nx, o, st.op[static_cast<std::size_t>(o)]
                              .results[static_cast<std::size_t>(j)]);
      moves.add(nx, kRegisterOpName[o], " uses iteration ", j);
    }
    return e;
  }

  if (const auto v = register_outcome(st)) {
    e.terminal_value = *v;
    return e;
  }

  // -- Adversary moves --
  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o, kDone)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    const auto uo = static_cast<std::size_t>(o);
    switch (op.stage) {
      case kQuery: {
        // Capture replies (a replica answers the query with its current
        // state; delivery timing is folded into the later finish move).
        for (int n = 0; n < kNodes; ++n) {
          if (op.replied & (1 << n)) continue;
          State nx = st;
          OpState& nop = nx.op[uo];
          nop.replied |= (1 << n);
          nop.reply[static_cast<std::size_t>(n)] =
              st.node[static_cast<std::size_t>(n)];
          moves.add(nx, kRegisterOpName[o], " query reply from n", n);
        }
        // Finish the phase with any achievable max: a captured pair p such
        // that at least kQuorum captured replies have ts <= ts(p). Each
        // distinct pair is tried once, at its first captured reply.
        for (int n = 0; n < kNodes; ++n) {
          if (!(op.replied & (1 << n))) continue;
          const Pair& p = op.reply[static_cast<std::size_t>(n)];
          bool dup = false;
          for (int m = 0; m < n; ++m) {
            dup = dup || ((op.replied & (1 << m)) &&
                          op.reply[static_cast<std::size_t>(m)] == p);
          }
          if (dup) continue;
          int dominated = 0;
          for (int m = 0; m < kNodes; ++m) {
            if (!(op.replied & (1 << m))) continue;
            if (op.reply[static_cast<std::size_t>(m)].ts_leq(p)) ++dominated;
          }
          if (dominated >= kQuorum) {
            State nx = st;
            finish_query(nx, o, p, k_);
            moves.add(nx, kRegisterOpName[o], " query phase ", op.iter,
                      " -> (v=", p.val, ",ts=(", p.num, ',', p.pid, "))");
          }
        }
        break;
      }
      case kChoosing: {
        State nx = st;
        nx.choice_pending = o;
        moves.add(nx, kRegisterOpName[o], " draws its iteration choice");
        break;
      }
      case kUpdate: {
        for (int n = 0; n < kNodes; ++n) {
          if (op.processed & (1 << n)) continue;
          State nx = st;
          OpState& nop = nx.op[uo];
          nop.processed |= (1 << n);
          Pair& cell = nx.node[static_cast<std::size_t>(n)];
          if (cell.ts_less(op.upd)) cell = op.upd;
          moves.add(nx, kRegisterOpName[o], " update at n", n);
        }
        if (std::popcount(static_cast<unsigned>(op.processed)) >= kQuorum) {
          State nx = st;
          finish_update(nx, o);
          moves.add(nx, kRegisterOpName[o], " returns");
        }
        break;
      }
      default:
        break;
    }
  }

  // Program steps of p1 (coin, then C := coin) and p2 (read C after R2).
  add_program_steps(st, kDone, moves);
  BLUNT_ASSERT(!e.next.empty(),
               "AbdPhaseWeakenerGame stuck (no moves, no terminal)");
  return e;
}

}  // namespace blunt::game
