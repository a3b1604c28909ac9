// Exact adversary-vs-coin game solving.
//
// Prob[P(O) → B] (Section 2.4) is a supremum over strong adversaries of a
// probability over coin flips — operationally a max-expectation game: the
// adversary owns scheduling nodes (value = max over moves), nature owns coin
// nodes (value = uniform average), terminals score 1 when the outcome lies
// in B. For finite-state models this value is computable exactly by memoized
// DFS over (copyable, canonically-encoded) states — which is why game models
// are written as explicit state machines (src/game/*_game.*) rather than on
// the coroutine simulator, whose frames cannot be copied.
//
// The strong-adversary information constraint (schedules may depend on past
// coins only) is inherent in the tree structure: a chance node's children
// subtrees may differ per outcome, but nothing above the node can.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rational.hpp"

namespace blunt::game {

/// One expanded game node.
struct Expansion {
  enum class Kind { kTerminal, kAdversary, kChance };

  Kind kind = Kind::kTerminal;
  /// Terminal payoff (probability mass of "bad"): usually 0 or 1.
  Rational terminal_value;
  /// Successor states (canonical encodings). Adversary: max over these.
  /// Chance: uniform average over these.
  std::vector<std::string> next;
  /// Optional human-readable move labels, parallel to `next` (for the
  /// strategy extractor); may be empty.
  std::vector<std::string> labels;
};

/// A game model over canonically-encoded states. Encodings must be
/// injective: equal strings == equal states.
class GameModel {
 public:
  virtual ~GameModel() = default;

  [[nodiscard]] virtual std::string initial() const = 0;
  [[nodiscard]] virtual Expansion expand(const std::string& state) const = 0;
};

struct SolveStats {
  std::size_t states_visited = 0;   // distinct memoized states
  std::size_t expansions = 0;       // expand() calls
  int max_depth = 0;
};

/// Exact value of the game: sup over adversary strategies of the expected
/// terminal payoff. The state graph must be acyclic (each model guarantees
/// progress); a depth guard asserts against accidental cycles.
[[nodiscard]] Rational solve(const GameModel& model, SolveStats* stats = nullptr);

/// One (of possibly several) optimal adversary line of play: from the root,
/// follow argmax moves at adversary nodes and outcome 0 at chance nodes,
/// reporting move labels. Useful to print the extracted adversary strategy
/// (e.g. the Figure 1 schedule falls out of the k=1 ABD game).
struct StrategyEdge {
  std::string label;
  bool chance = false;
  int outcome = -1;  // chance branch index
  Rational value;    // subtree value
};

struct Solution {
  Rational value;
  SolveStats stats;
  std::vector<StrategyEdge> strategy;  // at most max_edges moves
};

/// solve() plus one optimal line of play, both read from the same memo: the
/// state graph is expanded once, and `stats` counts exactly what solve()
/// would.
[[nodiscard]] Solution solve_with_strategy(const GameModel& model,
                                           int max_edges = 200);

}  // namespace blunt::game
