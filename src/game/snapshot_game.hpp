// Exact game model of the snapshot weakener (programs/snapshot_weakener)
// over the Afek et al. Snapshot^k implementation (Section 5.2).
//
//   p0: Update(1)                      — segment 0
//   p1: Update(1); c := flip; C := c   — segment 1
//   p2: v1 := Scan^k; v2 := Scan^k; cc := C
//   bad: classify(v1) = only_cc  and  classify(v2) = both
//
// Granularity: the implementation's steps exactly. A collect is three cell
// reads in index order, one adversary-scheduled atomic step each; the scan
// loop repeats collects until two successive ones agree on every sequence
// number (each process updates at most once in this program, so the
// borrowed-view path — a process seen moving twice — is unreachable and
// embedded views need not be tracked; the loop terminates within three
// collects). An Update runs one embedded scan loop, then writes its cell in
// one atomic step. Scans iterate the loop k times with a uniform choice
// (Algorithm 2); k = 1 is the original object. C is atomic (same argument
// as the ABD game).
//
// Measured: the exact value is 1/2 for every k — the double-collect
// discipline already pins a pending Scan's view before the coin can be
// exploited in this program (the adversary does no better than against an
// atomic snapshot). See the snapshot_blunting experiment.
#pragma once

#include "game/solver.hpp"

namespace blunt::game {

class SnapshotWeakenerGame final : public GameModel {
 public:
  /// k = Scan preamble iterations, 1 <= k <= 3.
  explicit SnapshotWeakenerGame(int k);

  [[nodiscard]] std::string initial() const override;
  [[nodiscard]] Expansion expand(const std::string& state) const override;

  [[nodiscard]] int k() const { return k_; }

 private:
  int k_;
};

}  // namespace blunt::game
