#include "game/solver.hpp"

#include <functional>
#include <string_view>

#include "common/assert.hpp"

namespace blunt::game {

namespace {

constexpr int kMaxDepth = 100000;

using KeyHash = std::hash<std::string_view>;

std::string to_hex(std::string_view key) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : key) out += {kDigits[c >> 4], kDigits[c & 15]};
  return out;
}

/// Open-addressed memo from state keys to values: linear probing over a
/// power-of-two slot table, every key copied once into one byte arena. A
/// hit needs equal hash, length and key bytes — never the hash alone.
class Memo {
 public:
  /// Starts loading the slot a lookup of `hash` probes first.
  void prefetch(std::uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  /// The value stored under `key`, or nullptr (invalidated by insert()).
  [[nodiscard]] const Rational* find(std::uint64_t hash,
                                     std::string_view key) const {
    const Slot& s = slots_[probe(hash, key)];
    return s.length == kEmpty ? nullptr : &s.value;
  }

  /// Stores `key`, which must not be present yet.
  void insert(std::uint64_t hash, std::string_view key, const Rational& v) {
    if (4 * ++size_ > 3 * slots_.size()) {
      std::vector<Slot> old(2 * slots_.size());
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.length != kEmpty) slots_[probe(s.hash, key_of(s))] = s;
      }
    }
    BLUNT_ASSERT(arena_.size() + key.size() < kEmpty,
                 "game memo arena exceeds 4 GiB");
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    slots_[probe(hash, key)] = {hash, offset,
                                static_cast<std::uint32_t>(key.size()), v};
    arena_.append(key);
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;
    std::uint32_t length = kEmpty;  // kEmpty: a free slot
    Rational value;
  };

  [[nodiscard]] std::string_view key_of(const Slot& s) const {
    return {arena_.data() + s.offset, s.length};
  }

  /// The slot holding `key`, else the free slot where its probe ends.
  [[nodiscard]] std::size_t probe(std::uint64_t hash,
                                  std::string_view key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i].length != kEmpty &&
           (slots_[i].hash != hash || key_of(slots_[i]) != key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<Slot> slots_ = std::vector<Slot>(1 << 10);
  std::size_t size_ = 0;
  std::string arena_;  // every key, back to back
};

class Solver {
 public:
  explicit Solver(const GameModel& model) : model_(model) {}

  Rational value(const std::string& state, int depth) {
    return value(state, KeyHash{}(state), depth);
  }

  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  Rational value(const std::string& state, std::uint64_t hash, int depth) {
    BLUNT_ASSERT(depth < kMaxDepth,
                 "game depth exceeded — cyclic model? state (hex): "
                     << to_hex(state));
    if (stats_.max_depth < depth) stats_.max_depth = depth;
    ++stats_.memo_probes;
    if (const Rational* hit = memo_.find(hash, state)) {
      ++stats_.memo_hits;
      return *hit;
    }
    const Expansion e = model_.expand(state);
    ++stats_.expansions;
    // Hash every successor and prefetch its first slot up front, so the
    // memo lookups of the siblings overlap instead of missing one by one.
    // The hashes live on a stack shared by all frames.
    const std::size_t base = hashes_.size();
    for (const std::string& s : e.next) {
      hashes_.push_back(KeyHash{}(s));
      memo_.prefetch(hashes_.back());
    }
    Rational v;
    switch (e.kind) {
      case Expansion::Kind::kTerminal:
        v = e.terminal_value;
        break;
      case Expansion::Kind::kAdversary: {
        BLUNT_ASSERT(!e.next.empty(), "adversary node with no moves");
        bool first = true;
        for (std::size_t j = 0; j < e.next.size(); ++j) {
          const Rational c = value(e.next[j], hashes_[base + j], depth + 1);
          if (first || c > v) v = c;
          first = false;
        }
        break;
      }
      case Expansion::Kind::kChance: {
        BLUNT_ASSERT(!e.next.empty(), "chance node with no outcomes");
        for (std::size_t j = 0; j < e.next.size(); ++j) {
          v += value(e.next[j], hashes_[base + j], depth + 1);
        }
        v /= Rational(static_cast<std::int64_t>(e.next.size()));
        break;
      }
    }
    hashes_.resize(base);
    memo_.insert(hash, state, v);
    ++stats_.states_visited;
    return v;
  }

  const GameModel& model_;
  Memo memo_;
  std::vector<std::uint64_t> hashes_;
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
  // Every state below is already memoized: the walk only reads values, and
  // labels only the states it walks.
  for (int i = 0; i < max_edges; ++i) {
    const Expansion e = model.expand(state);
    if (e.kind == Expansion::Kind::kTerminal) break;
    const std::vector<std::string> labels = model.move_labels(state);
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
          {labels.size() > best ? labels[best] : "?", false, -1, best_v});
      state = e.next[best];
    } else {
      // Chance: follow outcome 0 (callers wanting full trees re-run with a
      // conditioned model); record the branch taken.
      sol.strategy.push_back({labels.empty() ? "coin" : labels[0], true, 0,
                              s.value(e.next[0], 0)});
      state = e.next[0];
    }
  }
  return sol;
}

}  // namespace blunt::game
