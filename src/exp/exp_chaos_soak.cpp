// Chaos soak: randomized fault plans (message loss, duplication, partitions,
// crash schedules) x seeds x objects, every completed run linearizability-
// checked, every quorum-reachable run required to terminate.
//
// The generated plans are quorum-preserving by construction (crashes bounded
// by a minority, partitions heal, per-channel loss budgets smaller than the
// retransmission budget), so the acceptance bar is absolute: every single
// run must complete AND be linearizable. Vitanyi-Awerbuch and Israeli-Li are
// shared-memory (base-register) objects with no message channels, so they
// join the soak under crash-only plans — loss/duplication/partitions do not
// apply to them (see DESIGN.md "Fault model").
//
// The bench closes with a planted-bug shrink demo: ABD with a deliberately
// sub-majority quorum (AbdBug::kSubMajorityQuorum) is soaked until a
// linearizability violation appears, then the recorded schedule is
// delta-debugged down to a 1-minimal counterexample and printed as a
// compilable ScriptedAdversary program. A correct implementation survives
// the soak; the planted bug must not — this validates that the harness can
// actually catch (and explain) quorum bugs.
//
// --trials sets the per-configuration ABD trial count; shared-memory
// objects run min(that, 150) trials each.
//
// Engine port: the trial space concatenates the four soak groups —
// [0, a) ABD k=1, [a, 2a) ABD k=2, then Vitanyi and Israeli-Li crash-only
// blocks of min(a, 150) each — with the decoded in-group index as the seed,
// reproducing the pre-port per-trial worlds exactly. All totals are integer
// counters (permutation-invariant). The shrink demo is inherently
// sequential (stop at the first violation, then ddmin) and runs in finalize.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "adversary/shrink.hpp"
#include "common/assert.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/israeli_li.hpp"
#include "objects/vitanyi.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

constexpr int kMaxRetransmits = 12;  // > any per-channel loss budget
constexpr int kSharedMemCap = 150;

// Per-group totals live in named accumulator counters, keyed
// "<group>.<field>" with group in {abd1, abd2, vit, il}; add_totals and
// read_totals keep the trial side and the finalize table in sync.
struct ChaosTotals {
  long runs = 0;
  long completed = 0;
  long linearizable = 0;
  long losses = 0;
  long duplicates = 0;
  long partitions_opened = 0;
  long partitions_healed = 0;
  long crashes = 0;
  long retransmissions = 0;
};

void add_totals(Accumulator& acc, const std::string& group,
                const ChaosTotals& t) {
  acc.counter(group + ".runs") += t.runs;
  acc.counter(group + ".completed") += t.completed;
  acc.counter(group + ".linearizable") += t.linearizable;
  acc.counter(group + ".losses") += t.losses;
  acc.counter(group + ".duplicates") += t.duplicates;
  acc.counter(group + ".partitions_opened") += t.partitions_opened;
  acc.counter(group + ".partitions_healed") += t.partitions_healed;
  acc.counter(group + ".crashes") += t.crashes;
  acc.counter(group + ".retransmissions") += t.retransmissions;
}

ChaosTotals read_totals(const Accumulator& acc, const std::string& group) {
  ChaosTotals t;
  t.runs = acc.counter_or(group + ".runs");
  t.completed = acc.counter_or(group + ".completed");
  t.linearizable = acc.counter_or(group + ".linearizable");
  t.losses = acc.counter_or(group + ".losses");
  t.duplicates = acc.counter_or(group + ".duplicates");
  t.partitions_opened = acc.counter_or(group + ".partitions_opened");
  t.partitions_healed = acc.counter_or(group + ".partitions_healed");
  t.crashes = acc.counter_or(group + ".crashes");
  t.retransmissions = acc.counter_or(group + ".retransmissions");
  return t;
}

struct AbdChaosWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> reg;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// A 3-process read/write workload over one ABD^k register, with the plan's
/// faults interposed. The same constructor serves the soak (fresh world per
/// trial) and the shrinker's replay predicate (identical world, different
/// adversary) — determinism of the pair (coin seed, plan) is what makes the
/// recorded schedules replayable.
AbdChaosWorld make_abd_chaos(std::uint64_t coin_seed,
                             const fault::FaultPlan& plan, int k,
                             objects::AbdBug bug, bool metrics,
                             sim::TraceDetail detail = sim::TraceDetail::kFull,
                             bool profile = false) {
  AbdChaosWorld cw;
  cw.world = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .metrics = metrics,
                  .trace_detail = detail,
                  .profile = profile},
      std::make_unique<sim::SeededCoin>(coin_seed));
  cw.reg = std::make_unique<objects::AbdRegister>(
      "R", *cw.world,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = k,
                                    .max_retransmits = kMaxRetransmits,
                                    .bug = bug});
  cw.injector = std::make_unique<fault::FaultInjector>(plan, *cw.world);
  cw.reg->set_fault_layer(cw.injector.get());
  objects::AbdRegister& reg = *cw.reg;
  if (bug == objects::AbdBug::kNone) {
    for (Pid pid = 0; pid < plan.num_processes; ++pid) {
      cw.world->add_process("p" + std::to_string(pid),
                            [&reg, pid](sim::Proc p) -> sim::Task<void> {
                              co_await reg.write(
                                  p, sim::Value(std::int64_t{pid + 1}));
                              (void)co_await reg.read(p);
                            });
    }
  } else {
    // Bug-hunting shape: one writer + double-readers, so a sub-majority
    // quorum surfaces as a stale read after the write returned (each process
    // reading its own write would mask it).
    cw.world->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
      co_await reg.write(p, sim::Value(std::int64_t{7}));
    });
    for (Pid pid = 1; pid < plan.num_processes; ++pid) {
      cw.world->add_process("r" + std::to_string(pid),
                            [&reg](sim::Proc p) -> sim::Task<void> {
                              (void)co_await reg.read(p);
                              (void)co_await reg.read(p);
                            });
    }
  }
  return cw;
}

bool lin_ok(const sim::World& w) {
  lin::RegisterSpec spec;
  return lin::check_linearizable(lin::History::from_world(w), spec)
      .linearizable;
}

// The chaos trial bodies take an optional coverage accumulator (`cov`):
// nullptr runs the exact pre-coverage path; non-null wraps the chaos
// adversary in the choice-transparent obs::ScheduleFingerprinter and records
// fingerprints on the side — the run itself is identical either way. The
// ABD body's optional `prof` receives its worlds' profiles the same way.
/// Every plan that reaches an execution passes full structural validation
/// (FaultPlan::validate) — the generator is quorum-preserving by
/// construction, and this hard check keeps it honest as knobs evolve. The
/// fuzzer's plan mutator goes through the same gate.
fault::FaultPlan validated(fault::FaultPlan plan) {
  const std::string err = plan.validate();
  BLUNT_ASSERT(err.empty(), "invalid fault plan: " << err << " in "
                                                   << plan.to_string());
  return plan;
}

void abd_trial(std::uint64_t seed, int k, ChaosTotals& t, Accumulator* cov,
               Accumulator* prof) {
  const fault::FaultPlan plan = validated(fault::random_plan(
      fault::mix64(seed * 2 + static_cast<std::uint64_t>(k)), {}));
  // The soak never reads the trace (lin_ok works off the invocation
  // table), so trials run at kNone; the shrink demo below replays against
  // event whats and keeps the default kFull.
  AbdChaosWorld cw = make_abd_chaos(seed, plan, k, objects::AbdBug::kNone,
                                    /*metrics=*/false, sim::TraceDetail::kNone,
                                    /*profile=*/prof != nullptr);
  sim::UniformAdversary uniform(fault::mix64(seed) * 7 + 3);
  fault::ChaosAdversary adv(uniform, cw.injector->plan(), cw.injector.get());
  sim::RunResult res;
  if (cov != nullptr) {
    obs::ScheduleFingerprinter fp(adv);
    res = cw.world->run(fp);
    record_coverage(*cov, fp, *cw.world);
  } else {
    res = cw.world->run(adv);
  }
  if (prof != nullptr) record_profile(*prof, "abd", *cw.world);
  ++t.runs;
  t.losses += cw.injector->losses_injected();
  t.duplicates += cw.injector->duplicates_injected();
  t.partitions_opened += cw.injector->partitions_opened();
  t.partitions_healed += cw.injector->partitions_healed();
  t.crashes += cw.injector->crashes_injected();
  t.retransmissions += cw.reg->retransmissions();
  if (res.status != sim::RunStatus::kCompleted) {
    std::fprintf(stderr, "NON-TERMINATING run: seed=%llu k=%d plan=%s\n%s\n",
                 static_cast<unsigned long long>(seed), k,
                 plan.to_string().c_str(), res.deadlock_detail.c_str());
    return;
  }
  ++t.completed;
  if (lin_ok(*cw.world)) {
    ++t.linearizable;
  } else {
    std::fprintf(stderr, "LIN VIOLATION: seed=%llu k=%d plan=%s\n",
                 static_cast<unsigned long long>(seed), k,
                 plan.to_string().c_str());
  }
}

/// Crash-only plan for the shared-memory objects: same crash-schedule
/// machinery, no channels to fault.
fault::FaultPlan crash_only_plan(std::uint64_t seed, int num_processes) {
  fault::PlanOptions opts;
  opts.num_processes = num_processes;
  opts.max_loss_permille = 0;
  opts.max_dup_permille = 0;
  opts.max_partitions = 0;
  return validated(fault::random_plan(seed, opts));
}

void vitanyi_trial(std::uint64_t seed, int k, ChaosTotals& t,
                   Accumulator* cov) {
  const fault::FaultPlan plan = crash_only_plan(fault::mix64(seed * 2 + 1), 3);
  auto w = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::VitanyiRegister reg("R", *w,
                               {.num_processes = 3, .preamble_iterations = k});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     co_await reg.write(p, sim::Value(std::int64_t{pid}));
                     (void)co_await reg.read(p);
                   });
  }
  sim::UniformAdversary uniform(fault::mix64(seed) * 17 + 7);
  fault::ChaosAdversary adv(uniform, plan);
  sim::RunResult res;
  if (cov != nullptr) {
    obs::ScheduleFingerprinter fp(adv);
    res = w->run(fp);
    record_coverage(*cov, fp, *w);
  } else {
    res = w->run(adv);
  }
  ++t.runs;
  t.crashes += static_cast<long>(plan.crashes.size());
  if (res.status != sim::RunStatus::kCompleted) return;
  ++t.completed;
  if (lin_ok(*w)) ++t.linearizable;
}

void israeli_li_trial(std::uint64_t seed, int k, ChaosTotals& t,
                      Accumulator* cov) {
  const fault::FaultPlan plan = crash_only_plan(fault::mix64(seed * 2 + 5), 3);
  auto w = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .trace_detail = sim::TraceDetail::kNone},
      std::make_unique<sim::SeededCoin>(seed));
  objects::IsraeliLiRegister reg(
      "R", *w, {.num_readers = 2, .writer = 2, .preamble_iterations = k});
  for (Pid pid = 0; pid < 2; ++pid) {
    w->add_process("r" + std::to_string(pid),
                   [&reg](sim::Proc p) -> sim::Task<void> {
                     (void)co_await reg.read(p);
                     (void)co_await reg.read(p);
                   });
  }
  w->add_process("w", [&reg](sim::Proc p) -> sim::Task<void> {
    co_await reg.write(p, sim::Value(std::int64_t{1}));
    co_await reg.write(p, sim::Value(std::int64_t{2}));
  });
  sim::UniformAdversary uniform(fault::mix64(seed) * 19 + 9);
  fault::ChaosAdversary adv(uniform, plan);
  sim::RunResult res;
  if (cov != nullptr) {
    obs::ScheduleFingerprinter fp(adv);
    res = w->run(fp);
    record_coverage(*cov, fp, *w);
  } else {
    res = w->run(adv);
  }
  ++t.runs;
  t.crashes += static_cast<long>(plan.crashes.size());
  if (res.status != sim::RunStatus::kCompleted) return;
  ++t.completed;
  if (lin_ok(*w)) ++t.linearizable;
}

// -- Trial-space layout ------------------------------------------------------

struct ChaosLayout {
  std::int64_t abd_trials = 0;         // per ABD k (k=1 and k=2 blocks)
  std::int64_t shared_mem_trials = 0;  // per shared-memory object
};

/// total = 2*a + 2*min(a, 150) inverts uniquely: a = total/4 while a <= 150
/// (total <= 600), else a = (total - 300)/2.
ChaosLayout layout_from_total(std::int64_t total) {
  ChaosLayout l;
  l.abd_trials = total <= 4 * kSharedMemCap ? total / 4
                                            : (total - 2 * kSharedMemCap) / 2;
  l.shared_mem_trials = std::min<std::int64_t>(l.abd_trials, kSharedMemCap);
  return l;
}

std::int64_t resolve_trials(std::int64_t requested) {
  // The default 550 exceeds the 1000-plan acceptance bar.
  const std::int64_t a = requested > 0 ? requested : 550;
  return 2 * a + 2 * std::min<std::int64_t>(a, kSharedMemCap);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const ChaosLayout l = layout_from_total(ctx.trials);
  const std::int64_t i = ctx.trial_index;
  Accumulator* cov = ctx.coverage ? &acc : nullptr;
  Accumulator* prof = ctx.profile ? &acc : nullptr;
  ChaosTotals t;
  if (i < l.abd_trials) {
    abd_trial(static_cast<std::uint64_t>(i), 1, t, cov, prof);
    add_totals(acc, "abd1", t);
  } else if (i < 2 * l.abd_trials) {
    abd_trial(static_cast<std::uint64_t>(i - l.abd_trials), 2, t, cov, prof);
    add_totals(acc, "abd2", t);
  } else if (i < 2 * l.abd_trials + l.shared_mem_trials) {
    vitanyi_trial(static_cast<std::uint64_t>(i - 2 * l.abd_trials), 2, t, cov);
    add_totals(acc, "vit", t);
  } else {
    israeli_li_trial(
        static_cast<std::uint64_t>(i - 2 * l.abd_trials - l.shared_mem_trials),
        2, t, cov);
    add_totals(acc, "il", t);
  }
}

// -- Planted-bug shrink demo -------------------------------------------------

struct ShrinkDemo {
  bool violation_found = false;
  bool shrunk_still_fails = false;
  std::uint64_t seed = 0;
  int original_len = 0;
  int shrunk_len = 0;
  std::string program;
};

/// True iff replaying `schedule` against the buggy world reproduces the
/// linearizability violation.
bool replay_fails(std::uint64_t coin_seed, const fault::FaultPlan& plan,
                  const std::vector<adversary::EventDescriptor>& schedule) {
  AbdChaosWorld cw = make_abd_chaos(coin_seed, plan, /*k=*/1,
                                    objects::AbdBug::kSubMajorityQuorum,
                                    /*metrics=*/false);
  adversary::EventReplayAdversary adv(schedule);
  if (cw.world->run(adv).status != sim::RunStatus::kCompleted) return false;
  return !lin_ok(*cw.world);
}

ShrinkDemo run_shrink_demo(int max_seeds) {
  ShrinkDemo demo;
  for (std::uint64_t seed = 0;
       seed < static_cast<std::uint64_t>(max_seeds) && !demo.violation_found;
       ++seed) {
    const fault::FaultPlan plan =
        validated(fault::random_plan(fault::mix64(seed * 2 + 13), {}));
    AbdChaosWorld cw = make_abd_chaos(seed, plan, /*k=*/1,
                                      objects::AbdBug::kSubMajorityQuorum,
                                      /*metrics=*/false);
    sim::UniformAdversary uniform(fault::mix64(seed) * 23 + 11);
    fault::ChaosAdversary chaos(uniform, cw.injector->plan(),
                                cw.injector.get());
    adversary::RecordingAdversary recorder(chaos);
    if (cw.world->run(recorder).status != sim::RunStatus::kCompleted) continue;
    if (lin_ok(*cw.world)) continue;
    // Skip degenerate finds where the violation reproduces under the
    // first-enabled fallback with NO scheduled choices at all — ddmin would
    // (correctly) shrink those to the empty program, which demonstrates
    // nothing about schedule minimization.
    if (replay_fails(seed, plan, {})) continue;
    demo.violation_found = true;
    demo.seed = seed;
    demo.original_len = static_cast<int>(recorder.schedule().size());
    const auto fails = [seed,
                        &plan](const std::vector<adversary::EventDescriptor>&
                                   candidate) {
      return replay_fails(seed, plan, candidate);
    };
    // The recording itself must replay to a failure before shrinking starts
    // (shrink_schedule asserts it); this is the determinism guarantee.
    const std::vector<adversary::EventDescriptor> minimal =
        adversary::shrink_schedule(fails, recorder.schedule());
    demo.shrunk_len = static_cast<int>(minimal.size());
    demo.shrunk_still_fails = replay_fails(seed, plan, minimal);
    demo.program = adversary::to_scripted_program(minimal);
  }
  return demo;
}

int finalize_impl(obs::BenchReport& report, const Accumulator& acc,
                  const RunInfo& info) {
  const ChaosLayout l = layout_from_total(info.trials);
  print_header(
      "Chaos soak: randomized fault plans, all runs lin-checked");

  const ChaosTotals abd1 = read_totals(acc, "abd1");
  const ChaosTotals abd2 = read_totals(acc, "abd2");
  const ChaosTotals vit = read_totals(acc, "vit");
  const ChaosTotals il = read_totals(acc, "il");

  const auto print_row = [](const char* name, const ChaosTotals& t) {
    std::printf("%-26s %7ld %9ld %9ld %7ld %6ld %6ld %7ld %8ld\n", name,
                t.runs, t.completed, t.linearizable, t.losses, t.duplicates,
                t.partitions_opened, t.crashes, t.retransmissions);
  };
  print_rule();
  std::printf("%-26s %7s %9s %9s %7s %6s %6s %7s %8s\n", "object", "plans",
              "completed", "lin ok", "lost", "dup", "parts", "crashes",
              "resends");
  print_rule();
  print_row("ABD multi-writer (k=1)", abd1);
  print_row("ABD^2 multi-writer", abd2);
  print_row("Vitanyi (crash-only)", vit);
  print_row("Israeli-Li (crash-only)", il);
  print_rule();

  const long total_plans = abd1.runs + abd2.runs + vit.runs + il.runs;
  const long total_completed =
      abd1.completed + abd2.completed + vit.completed + il.completed;
  const long total_lin =
      abd1.linearizable + abd2.linearizable + vit.linearizable +
      il.linearizable;
  const bool all_terminated = total_completed == total_plans;
  const bool all_linearizable = total_lin == total_completed;
  std::printf("termination: %ld/%ld  linearizable: %ld/%ld\n", total_completed,
              total_plans, total_lin, total_completed);

  const ShrinkDemo demo = run_shrink_demo(/*max_seeds=*/200);
  std::printf("\nplanted-bug shrink demo (sub-majority quorum):\n");
  if (demo.violation_found) {
    std::printf(
        "  violation at seed %llu; schedule %d events -> %d after ddmin "
        "(replay %s)\n",
        static_cast<unsigned long long>(demo.seed), demo.original_len,
        demo.shrunk_len, demo.shrunk_still_fails ? "fails" : "PASSES (!)");
    std::printf("  minimal counterexample as a scripted adversary:\n%s",
                demo.program.c_str());
  } else {
    std::printf("  NO violation found (!) — the harness missed a planted "
                "quorum bug\n");
  }

  const bool harness_catches_bug =
      demo.violation_found && demo.shrunk_still_fails;
  std::printf("\nverdict: %s\n",
              all_terminated && all_linearizable && harness_catches_bug
                  ? "all runs terminated and linearizable; planted bug "
                    "caught and shrunk"
                  : "FAILURES (!)");

  report.set_metric_int("total_plans", total_plans);
  report.set_metric_int("completed", total_completed);
  report.set_metric_int("linearizable", total_lin);
  report.set_metric_int("violations", total_completed - total_lin);
  // Headline bad probability = linearizability violations per completed run
  // (expected 0; the Wilson interval tightens as the trial count grows).
  set_bernoulli_metric(report, "bad_probability",
                       total_completed - total_lin, total_completed);
  report.set_metric_bool("all_terminated", all_terminated);
  report.set_metric_bool("all_linearizable", all_linearizable);
  report.set_metric_int("messages_lost", abd1.losses + abd2.losses);
  report.set_metric_int("messages_duplicated",
                        abd1.duplicates + abd2.duplicates);
  report.set_metric_int("partitions_opened",
                        abd1.partitions_opened + abd2.partitions_opened);
  report.set_metric_int("partitions_healed",
                        abd1.partitions_healed + abd2.partitions_healed);
  report.set_metric_int("crashes_injected",
                        abd1.crashes + abd2.crashes + vit.crashes + il.crashes);
  report.set_metric_int("retransmissions",
                        abd1.retransmissions + abd2.retransmissions);
  report.set_metric_bool("shrink_violation_found", demo.violation_found);
  report.set_metric_bool("shrink_replay_fails", demo.shrunk_still_fails);
  report.set_metric_int("shrink_original_len", demo.original_len);
  report.set_metric_int("shrink_minimal_len", demo.shrunk_len);
  report.set_metric_string("shrink_program", demo.program);
  report.set_environment_int("abd_trials_per_k", l.abd_trials);
  report.set_environment_int("shared_memory_trials_per_object",
                             l.shared_mem_trials);
  report.set_environment_int("max_retransmits", kMaxRetransmits);

  // Instrumented probe: one metrics-on chaos run so the report's registry
  // section carries the fault.* counters next to the net.*/sim.* ones.
  {
    const fault::FaultPlan plan =
        validated(fault::random_plan(fault::mix64(42), {}));
    AbdChaosWorld cw = make_abd_chaos(/*coin_seed=*/42, plan, /*k=*/2,
                                      objects::AbdBug::kNone,
                                      /*metrics=*/true);
    sim::UniformAdversary uniform(fault::mix64(42) * 7 + 3);
    fault::ChaosAdversary adv(uniform, cw.injector->plan(),
                              cw.injector.get());
    (void)cw.world->run(adv);
    merge_probe(report, cw.world->metrics()->snapshot());
  }

  report_coverage(report, acc, info);
  report_profile(report, acc, info);
  return all_terminated && all_linearizable && harness_catches_bug ? 0 : 1;
}

}  // namespace

Experiment make_chaos_soak_experiment() {
  Experiment e;
  e.name = "chaos_soak";
  e.description =
      "randomized fault plans x objects, all runs lin-checked + planted-bug "
      "shrink demo (--trials = ABD trials per k)";
  e.default_trials = resolve_trials(-1);
  e.default_seed = 0;
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = resolve_trials;
  e.trial = trial;
  e.finalize = finalize_impl;
  return e;
}

}  // namespace blunt::exp
