#include "game/va_game.hpp"

#include <array>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "game/packed_state.hpp"
#include "game/weakener_program.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 4;
constexpr int kCells = 3;

enum Stage : std::int32_t {
  kCollect = 0,   // reading cells in order
  kChoosing = 1,  // object random step pending scheduling
  kTail = 2,      // write: the Val[pid] write; read: the return step
  kDone = 3,
};

struct OpState {
  std::int32_t stage = kCollect;
  std::int32_t iter = 0;   // current collect iteration
  std::int32_t cell = 0;   // next cell to read in this iteration
  Pair running;            // max so far in this iteration
  std::array<Pair, kMaxK> results{};
  Pair chosen;
};

struct State {
  std::array<Pair, kCells> val{};  // the Val registers
  std::array<OpState, kOps> op{};
  std::int32_t coin = -1;
  std::int32_t flip_pending = 0;
  std::int32_t choice_pending = -1;
  std::int32_t c_written = 0;
  std::int32_t cl = -3;
  std::int32_t u1 = -3;
  std::int32_t u2 = -3;
};

// `chosen` by value: may alias op.results, which is cleared.
void enter_tail(State& st, int o, Pair chosen) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.stage = kTail;
  op.results = {};
  op.iter = 0;
  op.cell = 0;
  op.running = {};
  op.chosen = chosen;
}

void finish_collect_iteration(State& st, int o, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.results[static_cast<std::size_t>(op.iter)] = op.running;
  ++op.iter;
  op.cell = 0;
  op.running = {};
  if (op.iter < k) return;
  if (k == 1) {
    enter_tail(st, o, op.results[0]);
  } else {
    op.stage = kChoosing;
  }
}

void finish_tail(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  if (op_is_read(o)) {
    const std::int32_t v = op.chosen.val;
    if (o == 2) st.u1 = v;
    if (o == 3) st.u2 = v;
  } else {
    // One atomic write of (value, (maxint + 1, pid)) to the own cell.
    Pair next{kOpWriteValue[o], op.chosen.num + 1, kOpPid[o]};
    Pair& cell = st.val[static_cast<std::size_t>(kOpPid[o])];
    // Single-writer per cell: the writer's stamps strictly grow, so the
    // write always lands.
    cell = next;
  }
  finish_op(op, kDone);
}

}  // namespace

VaPhaseWeakenerGame::VaPhaseWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string VaPhaseWeakenerGame::initial() const { return pack(State{}); }

Expansion VaPhaseWeakenerGame::expand_into(
    const std::string& encoded, std::vector<std::string>* labels) const {
  const auto st = unpack<State>(encoded);
  Expansion e;
  Moves<State> moves(e, labels);

  if (expand_coin(st, e, moves)) return e;
  if (st.choice_pending >= 0) {
    const int o = st.choice_pending;
    e.kind = Expansion::Kind::kChance;
    for (int j = 0; j < k_; ++j) {
      State nx = st;
      nx.choice_pending = -1;
      enter_tail(nx, o, st.op[static_cast<std::size_t>(o)]
                            .results[static_cast<std::size_t>(j)]);
      moves.add(nx, kRegisterOpName[o], " uses iteration ", j);
    }
    return e;
  }

  if (const auto v = register_outcome(st)) {
    e.terminal_value = *v;
    return e;
  }

  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o, kDone)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    switch (op.stage) {
      case kCollect: {
        // Exactly one move: read the next cell in index order.
        State nx = st;
        OpState& nop = nx.op[static_cast<std::size_t>(o)];
        const Pair& cell = st.val[static_cast<std::size_t>(op.cell)];
        if (nop.running.ts_less(cell)) nop.running = cell;
        ++nop.cell;
        if (nop.cell == kCells) finish_collect_iteration(nx, o, k_);
        moves.add(nx, kRegisterOpName[o], " reads Val[", op.cell, "]");
        break;
      }
      case kChoosing: {
        State nx = st;
        nx.choice_pending = o;
        moves.add(nx, kRegisterOpName[o], " draws its iteration choice");
        break;
      }
      case kTail: {
        State nx = st;
        finish_tail(nx, o);
        moves.add(nx, kRegisterOpName[o],
                  op_is_read(o) ? " returns" : " writes+returns");
        break;
      }
      default:
        break;
    }
  }

  add_program_steps(st, kDone, moves);
  BLUNT_ASSERT(!e.next.empty(),
               "VaPhaseWeakenerGame stuck (no moves, no terminal)");
  return e;
}

}  // namespace blunt::game
