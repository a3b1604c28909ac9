#include "game/snapshot_game.hpp"

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "game/packed_state.hpp"
#include "game/weakener_program.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxK = 3;
constexpr int kCells = 3;

struct Cell {
  std::int32_t value = 0;
  std::int32_t seq = 0;
};

enum Stage : std::int32_t {
  kScanning = 0,  // in the (embedded or top-level) scan loop
  kChoosing = 1,  // scans only: object random step pending
  kWrite = 2,     // updates only: the single cell write
  kReturn = 3,    // scans only: the return step
  kDone = 4,
};

// One view = the three segment values; classification as in
// programs/snapshot_weakener (only segments 0 and 1 matter).
struct View {
  std::array<std::int32_t, kCells> v{};
};

// 0 = none, 1 = only0, 2 = only1, 3 = both.
std::int32_t classify(const View& view) {
  const bool s0 = view.v[0] != 0;
  const bool s1 = view.v[1] != 0;
  if (s0 && s1) return 3;
  if (s0) return 1;
  if (s1) return 2;
  return 0;
}

struct ScanLoop {
  std::int32_t have_first = 0;
  std::int32_t idx = 0;  // next cell to read in the current collect
  std::array<Cell, kCells> first{};
  std::array<Cell, kCells> partial{};

  void reset() { *this = ScanLoop{}; }
};

struct OpState {
  std::int32_t stage = kScanning;
  std::int32_t iter = 0;  // scan-loop iteration (for Scan^k)
  ScanLoop loop;
  std::array<View, kMaxK> results{};
  View chosen;  // scans: view to return; updates: embedded scan result
};

struct State {
  std::array<Cell, kCells> cell{};
  std::array<OpState, kOps> op{};
  std::int32_t coin = -1;
  std::int32_t flip_pending = 0;
  std::int32_t choice_pending = -1;
  std::int32_t c_written = 0;
  std::int32_t cl = -3;
  std::int32_t v1_class = -1;  // classify(v1), -1 = S1 not returned
  std::int32_t v2_class = -1;
};

const char* kOpName[kOps] = {"U0", "U1", "S1", "S2"};

// The scan loop finished one collect; decide: return a view, or loop.
// Returns true (and sets *out) if the double collect succeeded.
bool evaluate_collect(OpState& op, View* out) {
  if (op.loop.have_first == 0) {
    op.loop.first = op.loop.partial;
    op.loop.have_first = 1;
    op.loop.idx = 0;
    op.loop.partial = {};
    return false;
  }
  bool identical = true;
  for (int i = 0; i < kCells; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (op.loop.partial[ui].seq != op.loop.first[ui].seq) identical = false;
  }
  if (identical) {
    for (int i = 0; i < kCells; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      out->v[ui] = op.loop.partial[ui].value;
    }
    return true;
  }
  // Processes update at most once in this program, so "moved twice" (the
  // borrowed-view return) is unreachable; retry with the new collect as
  // `first`.
  op.loop.first = op.loop.partial;
  op.loop.idx = 0;
  op.loop.partial = {};
  return false;
}

// A scan-loop iteration produced `view`; advance the op.
void finish_scan_loop(State& st, int o, const View& view, int k) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  op.loop.reset();
  if (!op_is_read(o)) {
    // Update: the embedded scan ran once; go write.
    op.chosen = view;
    op.stage = kWrite;
    return;
  }
  op.results[static_cast<std::size_t>(op.iter)] = view;
  ++op.iter;
  if (op.iter < k) return;  // next iteration
  if (k == 1) {
    op.chosen = op.results[0];
    op.results = {};
    op.iter = 0;
    op.stage = kReturn;
  } else {
    op.stage = kChoosing;
  }
}

void finish_return(State& st, int o) {
  OpState& op = st.op[static_cast<std::size_t>(o)];
  const std::int32_t cls = classify(op.chosen);
  finish_op(op, kDone);
  if (o == 2) st.v1_class = cls;
  if (o == 3) st.v2_class = cls;
}

// The value of `st` once it is decided, else nullopt. bad: classify(v1) =
// only_c and classify(v2) = both, with c the coin relayed intact through C.
std::optional<Rational> outcome(const State& st) {
  const auto only = [](std::int32_t c) { return c == 0 ? 1 : 2; };
  if (st.cl != -3) {
    const bool bad = (st.cl == 0 || st.cl == 1) &&
                     st.v1_class == only(st.cl) && st.v2_class == 3;
    return Rational(bad ? 1 : 0);
  }
  // none/both can't match a coin
  if (st.v1_class == 0 || st.v1_class == 3) return Rational(0);
  if (st.v1_class != -1 && st.v2_class != -1) {
    if (st.v2_class != 3) return Rational(0);
    if (st.coin != -1) return Rational(st.v1_class == only(st.coin) ? 1 : 0);
  }
  if (st.v1_class != -1 && st.coin != -1 && st.v1_class != only(st.coin)) {
    return Rational(0);
  }
  return std::nullopt;
}

}  // namespace

SnapshotWeakenerGame::SnapshotWeakenerGame(int k) : k_(k) {
  BLUNT_ASSERT(k >= 1 && k <= kMaxK, "k must be in [1," << kMaxK << "]");
}

std::string SnapshotWeakenerGame::initial() const { return pack(State{}); }

Expansion SnapshotWeakenerGame::expand_into(
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
      OpState& op = nx.op[static_cast<std::size_t>(o)];
      op.chosen = op.results[static_cast<std::size_t>(j)];
      op.results = {};
      op.iter = 0;
      op.stage = kReturn;
      moves.add(nx, kOpName[o], " uses iteration ", j);
    }
    return e;
  }

  if (const auto v = outcome(st)) {
    e.terminal_value = *v;
    return e;
  }

  e.kind = Expansion::Kind::kAdversary;

  for (int o = 0; o < kOps; ++o) {
    if (!op_active(st, o, kDone)) continue;
    const OpState& op = st.op[static_cast<std::size_t>(o)];
    switch (op.stage) {
      case kScanning: {
        // One move: read the next cell of the current collect.
        State nx = st;
        OpState& nop = nx.op[static_cast<std::size_t>(o)];
        nop.loop.partial[static_cast<std::size_t>(op.loop.idx)] =
            st.cell[static_cast<std::size_t>(op.loop.idx)];
        ++nop.loop.idx;
        if (nop.loop.idx == kCells) {
          View view;
          if (evaluate_collect(nop, &view)) {
            finish_scan_loop(nx, o, view, k_);
          }
        }
        moves.add(nx, kOpName[o], " reads M[", op.loop.idx, "]");
        break;
      }
      case kChoosing: {
        State nx = st;
        nx.choice_pending = o;
        moves.add(nx, kOpName[o], " draws its iteration choice");
        break;
      }
      case kWrite: {
        // Update's single atomic write: (1, seq+1).
        State nx = st;
        Cell& cell = nx.cell[static_cast<std::size_t>(kOpPid[o])];
        cell.value = 1;
        cell.seq += 1;
        finish_op(nx.op[static_cast<std::size_t>(o)], kDone);
        moves.add(nx, kOpName[o], " writes M[", kOpPid[o], "]");
        break;
      }
      case kReturn: {
        State nx = st;
        finish_return(nx, o);
        moves.add(nx, kOpName[o], " returns");
        break;
      }
      default:
        break;
    }
  }

  add_program_steps(st, kDone, moves);
  BLUNT_ASSERT(!e.next.empty(),
               "SnapshotWeakenerGame stuck (no moves, no terminal)");
  return e;
}

}  // namespace blunt::game
