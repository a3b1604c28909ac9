// Differential check of the incremental enabled-event index (DESIGN.md §14).
//
// Config::verify_enabled_index arms a per-scan oracle inside the World: after
// assembling the enabled list from the incremental index, the scheduler
// re-derives it with the pre-overhaul brute-force rescan (re-polling every
// wait predicate, re-enumerating every delivery source) and BLUNT_ASSERTs
// byte equality element by element. These tests drive that oracle through
// every index code path — resume-region replace/erase/insert, polled and
// signaled waits, pushed network deltas (with and without a fault layer,
// including one installed mid-run), pushed resend tokens, the resync after a
// partition opens or heals, crashes, and fault ticks — at all three
// trace-detail levels, and additionally pin the flag-off run to the flag-on
// fingerprint (the oracle must observe, never perturb).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace blunt {
namespace {

struct HashingAdversary final : sim::Adversary {
  explicit HashingAdversary(sim::Adversary& inner) : inner_(inner) {}
  std::size_t choose(const sim::World& w,
                     const std::vector<sim::Event>& ev) override {
    const std::size_t c = inner_.choose(w, ev);
    for (const sim::Event& e : ev) {
      mix(static_cast<std::uint64_t>(static_cast<int>(e.kind)));
      mix(static_cast<std::uint64_t>(e.pid));
      mix(static_cast<std::uint64_t>(e.source_id));
      mix(static_cast<std::uint64_t>(e.msg_id));
      for (const char ch : e.what) mix(static_cast<unsigned char>(ch));
    }
    mix(c);
    return c;
  }
  void mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
  }
  sim::Adversary& inner_;
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct Outcome {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  int steps = 0;
  std::uint64_t hash = 0;  // every offered event, content included
};

/// Weakener over ABD^k: the headline workload. Signaled quorum waits plus
/// the weakener's own polled waits, pushed network deltas, no faults.
Outcome run_weakener(int k, int n, std::uint64_t seed, sim::TraceDetail d,
                     bool verify) {
  sim::World w(sim::Config{.metrics = false,
                           .trace_detail = d,
                           .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister r(
      "R", w,
      objects::AbdRegister::Options{.num_processes = n,
                                    .preamble_iterations = k});
  objects::AbdRegister c(
      "C", w,
      objects::AbdRegister::Options{.num_processes = n,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = k});
  programs::WeakenerOutcome out;
  programs::install_weakener(w, r, c, out);
  // Replicas beyond the three weakener pids exist as no-op filler processes,
  // exactly as exp::make_abd_weakener builds wide worlds: every ABD server
  // pid must be a World process.
  for (Pid pid = 3; pid < n; ++pid) {
    w.add_process("s" + std::to_string(pid),
                  [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  sim::UniformAdversary uni(seed * 31 + 7);
  HashingAdversary adv(uni);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_};
}

/// Chaos world: fault plan (crashes, partitions, loss, duplication, ticks),
/// pushed retransmission tokens, fault layer set before the first step; every
/// partition transition resyncs the sources once.
Outcome run_chaos(std::uint64_t seed, int k, sim::TraceDetail d,
                  bool verify) {
  const fault::FaultPlan plan = fault::random_plan(
      fault::mix64(seed * 2 + static_cast<std::uint64_t>(k)), {});
  sim::World w(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = false,
                  .trace_detail = d,
                  .verify_enabled_index = verify},
      std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg(
      "R", w,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = 6});
  fault::FaultInjector injector(plan, w);
  reg.set_fault_layer(&injector);
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    w.add_process("p" + std::to_string(pid),
                  [&reg, pid](sim::Proc p) -> sim::Task<void> {
                    co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                    (void)co_await reg.read(p);
                  });
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 7 + 3);
  fault::ChaosAdversary chaos(uniform, injector.plan(), &injector);
  HashingAdversary adv(chaos);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_};
}

/// A fault layer installed mid-run. Three ABD clients with resend tokens;
/// after p0's first query broadcast is in flight, the World-side injector
/// arrives and its partition cuts p0 off at step 3. Only after the World has
/// resynced (the step-4 scan) and p1 has broadcast too is the network pointed
/// at it, so the install itself must push the severed messages out of the
/// index. p0 cannot reach a quorum until the partition heals, so it heals
/// with those messages still held.
Outcome run_late_fault_layer(sim::TraceDetail d, bool verify) {
  sim::World w(sim::Config{.trace_detail = d, .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(17));
  objects::AbdRegister reg(
      "R", w,
      objects::AbdRegister::Options{.num_processes = 3, .max_retransmits = 2});
  for (Pid pid = 0; pid < 3; ++pid) {
    w.add_process("p" + std::to_string(pid),
                  [&reg, pid](sim::Proc p) -> sim::Task<void> {
                    co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                    (void)co_await reg.read(p);
                  });
  }
  // Step 1 starts p0, step 2 broadcasts its first query.
  for (int i = 0; i < 2; ++i) w.execute(w.enabled_events().front());
  fault::FaultPlan plan;
  plan.num_processes = 3;
  plan.partitions.push_back({/*side_mask=*/0b001, /*open=*/3, /*heal=*/40});
  fault::FaultInjector injector(plan, w);
  // Step 3 opens the partition and starts p1; step 4 broadcasts p1's query.
  for (int i = 0; i < 2; ++i) w.execute(w.enabled_events().front());
  reg.set_fault_layer(&injector);
  EXPECT_NE(w.describe_stuck().find("held by partition"), std::string::npos);
  sim::UniformAdversary uni(23);
  HashingAdversary adv(uni);
  const sim::RunResult res = w.run(adv);
  EXPECT_EQ(injector.partitions_healed(), 1);
  return {res.status, res.steps, adv.h_};
}

/// Duplicates every message; installed on the network only, so the World
/// has no fault layer, never ticks and never resyncs.
class DuplicateEverything final : public sim::FaultLayer {
 public:
  sim::SendFate on_send(const std::string&, Pid, Pid) override {
    return {.lose = false, .copies = 2};
  }
  [[nodiscard]] bool channel_blocked(Pid, Pid) const override {
    return false;
  }
  bool on_step(sim::World&) override { return false; }
  [[nodiscard]] bool tick_pending(const sim::World&) const override {
    return false;
  }
};

Outcome run_duplicating(sim::TraceDetail d, bool verify) {
  sim::World w(sim::Config{.max_crashes = 1,
                           .trace_detail = d,
                           .verify_enabled_index = verify},
               std::make_unique<sim::SeededCoin>(29));
  objects::AbdRegister reg(
      "R", w,
      objects::AbdRegister::Options{.num_processes = 3, .max_retransmits = 2});
  DuplicateEverything dup;
  reg.set_fault_layer(&dup);
  for (Pid pid = 0; pid < 3; ++pid) {
    w.add_process("p" + std::to_string(pid),
                  [&reg, pid](sim::Proc p) -> sim::Task<void> {
                    co_await reg.write(p, sim::Value(std::int64_t{pid + 1}));
                    (void)co_await reg.read(p);
                  });
  }
  sim::UniformAdversary uni(31);
  HashingAdversary adv(uni);
  const sim::RunResult res = w.run(adv);
  return {res.status, res.steps, adv.h_};
}

constexpr sim::TraceDetail kLevels[] = {
    sim::TraceDetail::kFull, sim::TraceDetail::kKinds, sim::TraceDetail::kNone};

TEST(EnabledIndex, WeakenerMatchesRescanOracleAtEveryDetailLevel) {
  for (const int k : {1, 2}) {
    const Outcome off =
        run_weakener(k, 3, 5 + static_cast<std::uint64_t>(k),
                     sim::TraceDetail::kFull, /*verify=*/false);
    EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
    for (const sim::TraceDetail d : kLevels) {
      // The oracle asserts inside every scan; surviving the run IS the
      // differential check. The fingerprint equality then pins the oracle
      // to pure observation.
      const Outcome on = run_weakener(k, 3, 5 + static_cast<std::uint64_t>(k),
                                      d, /*verify=*/true);
      EXPECT_EQ(on.status, off.status);
      EXPECT_EQ(on.steps, off.steps);
      if (d == sim::TraceDetail::kFull) {
        EXPECT_EQ(on.hash, off.hash);
      }
    }
  }
}

TEST(EnabledIndex, WiderQuorumsMatchRescanOracle) {
  // n = 8 replicas: multi-word-free but multi-majority bitsets, many
  // signaled waiters parked at once.
  const Outcome off = run_weakener(2, 8, 77, sim::TraceDetail::kNone,
                                   /*verify=*/false);
  const Outcome on = run_weakener(2, 8, 77, sim::TraceDetail::kNone,
                                  /*verify=*/true);
  EXPECT_EQ(on.status, off.status);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.hash, off.hash);
}

TEST(EnabledIndex, ChaosMatchesRescanOracleAtEveryDetailLevel) {
  for (const std::uint64_t seed :
       {11ULL, 21ULL, 33ULL, 45ULL, 57ULL, 69ULL, 81ULL, 93ULL}) {
    for (const int k : {1, 2}) {
      const Outcome off =
          run_chaos(seed, k, sim::TraceDetail::kFull, /*verify=*/false);
      for (const sim::TraceDetail d : kLevels) {
        const Outcome on = run_chaos(seed, k, d, /*verify=*/true);
        EXPECT_EQ(on.status, off.status);
        EXPECT_EQ(on.steps, off.steps);
        if (d == sim::TraceDetail::kFull) {
          EXPECT_EQ(on.hash, off.hash);
        }
      }
    }
  }
}

TEST(EnabledIndex, LateFaultLayerMatchesRescanOracleAtEveryDetailLevel) {
  const Outcome off =
      run_late_fault_layer(sim::TraceDetail::kFull, /*verify=*/false);
  EXPECT_EQ(off.status, sim::RunStatus::kCompleted);
  for (const sim::TraceDetail d : kLevels) {
    const Outcome on = run_late_fault_layer(d, /*verify=*/true);
    EXPECT_EQ(on.status, off.status);
    EXPECT_EQ(on.steps, off.steps);
    if (d == sim::TraceDetail::kFull) {
      EXPECT_EQ(on.hash, off.hash);
    }
  }
}

TEST(EnabledIndex, NetworkOnlyFaultLayerMatchesRescanOracle) {
  const Outcome off =
      run_duplicating(sim::TraceDetail::kFull, /*verify=*/false);
  for (const sim::TraceDetail d : kLevels) {
    const Outcome on = run_duplicating(d, /*verify=*/true);
    EXPECT_EQ(on.status, off.status);
    EXPECT_EQ(on.steps, off.steps);
    if (d == sim::TraceDetail::kFull) {
      EXPECT_EQ(on.hash, off.hash);
    }
  }
}

TEST(EnabledIndex, PolledWaitsAndSignaledWaitsCoexist) {
  // One process blocks on a hand-rolled polled predicate (the kPolled
  // default) while ABD clients park signaled waits on the same scans.
  for (const bool verify : {false, true}) {
    sim::World w(sim::Config{.verify_enabled_index = verify},
                 std::make_unique<sim::SeededCoin>(3));
    objects::AbdRegister reg(
        "R", w, objects::AbdRegister::Options{.num_processes = 3});
    bool release = false;
    w.add_process("writer", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, sim::Value(std::int64_t{42}));
    });
    w.add_process("gate", [&release](sim::Proc p) -> sim::Task<void> {
      co_await p.wait_until([&release] { return release; }, "gate-open");
      co_return;
    });
    w.add_process("reader",
                  [&reg, &release](sim::Proc p) -> sim::Task<void> {
                    (void)co_await reg.read(p);
                    release = true;
                  });
    sim::UniformAdversary adv(99);
    const sim::RunResult res = w.run(adv);
    EXPECT_EQ(res.status, sim::RunStatus::kCompleted);
  }
}

}  // namespace
}  // namespace blunt
