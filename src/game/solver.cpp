#include "game/solver.hpp"

#include <unordered_map>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxDepth = 100000;

class Solver {
 public:
  explicit Solver(const GameModel& model) : model_(model) {}

  Rational value(const std::string& state, int depth) {
    BLUNT_ASSERT(depth < kMaxDepth,
                 "game depth exceeded — cyclic model? state: " << state);
    if (stats_.max_depth < depth) stats_.max_depth = depth;
    const auto it = memo_.find(state);
    if (it != memo_.end()) return it->second;
    const Expansion e = model_.expand(state);
    ++stats_.expansions;
    Rational v;
    switch (e.kind) {
      case Expansion::Kind::kTerminal:
        v = e.terminal_value;
        break;
      case Expansion::Kind::kAdversary: {
        BLUNT_ASSERT(!e.next.empty(), "adversary node with no moves");
        bool first = true;
        for (const std::string& s : e.next) {
          const Rational c = value(s, depth + 1);
          if (first || c > v) v = c;
          first = false;
        }
        break;
      }
      case Expansion::Kind::kChance: {
        BLUNT_ASSERT(!e.next.empty(), "chance node with no outcomes");
        for (const std::string& s : e.next) v += value(s, depth + 1);
        v /= Rational(static_cast<std::int64_t>(e.next.size()));
        break;
      }
    }
    memo_.emplace(state, v);
    ++stats_.states_visited;
    return v;
  }

  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  const GameModel& model_;
  std::unordered_map<std::string, Rational> memo_;
  SolveStats stats_;
};

}  // namespace

Rational solve(const GameModel& model, SolveStats* stats) {
  Solver s(model);
  const Rational v = s.value(model.initial(), 0);
  if (stats != nullptr) *stats = s.stats();
  return v;
}

Solution solve_with_strategy(const GameModel& model, int max_edges) {
  Solver s(model);
  Solution sol;
  std::string state = model.initial();
  sol.value = s.value(state, 0);
  sol.stats = s.stats();
  // Every state below is already memoized: the walk only reads values.
  for (int i = 0; i < max_edges; ++i) {
    const Expansion e = model.expand(state);
    if (e.kind == Expansion::Kind::kTerminal) break;
    if (e.kind == Expansion::Kind::kAdversary) {
      std::size_t best = 0;
      Rational best_v = s.value(e.next[0], 0);
      for (std::size_t j = 1; j < e.next.size(); ++j) {
        const Rational v = s.value(e.next[j], 0);
        if (v > best_v) {
          best_v = v;
          best = j;
        }
      }
      sol.strategy.push_back(
          {e.labels.size() > best ? e.labels[best] : "?", false, -1, best_v});
      state = e.next[best];
    } else {
      // Chance: follow outcome 0 (callers wanting full trees re-run with a
      // conditioned model); record the branch taken.
      sol.strategy.push_back({e.labels.empty() ? "coin" : e.labels[0], true,
                              0, s.value(e.next[0], 0)});
      state = e.next[0];
    }
  }
  return sol;
}

}  // namespace blunt::game
