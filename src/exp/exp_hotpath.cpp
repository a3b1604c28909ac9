// Hotpath: the kernel-throughput experiment guarding the zero-allocation
// scheduler refactor and the bitmask-memoized Wing–Gong checker.
//
// Two timed workloads, both serial, both with a fixed deterministic amount
// of work so that "faster" is observable as wall clock alone:
//
//   * scheduler steps/sec — the weakener over ABD^k (k = 1 and k = 2) under
//     a uniformly random scheduler at TraceDetail::kNone, the configuration
//     every Monte-Carlo trial body runs in. The exact total step count of
//     the timed loop is a bit-identity invariant and is reported as an
//     exact (regression-gated) metric. The same loop at replication widths
//     n = 256 and n = 1000 (ABD^2, replica-only hosts for pids 3..n-1) gives
//     the large-n legs, whose n = 256 rate CI compares against the frozen
//     pre-overhaul kernel in BENCH_scaling_probe_pre_overhaul.json.
//   * lin-checks/sec — the Wing–Gong checker over a fixed set of ABD
//     histories (3 processes x {2,3} ops/process x 4 coin seeds), the shape
//     the chaos soak feeds it. Every check must come back linearizable.
//
// Wall clocks and derived throughputs go to timings_ms, which the report
// comparator treats as advisory (cross-host baselines drift); CI's Release
// job computes the speedup ratio against the committed seed-kernel baseline
// in bench/baselines/BENCH_hotpath.json and hard-gates on it.
//
// The trial phase is a parallel Monte-Carlo over the same weakener worlds:
// its merged counters are a pure function of the trial space, so
// `--timing-sweep` doubles as the proof that merged results are
// bit-identical across thread counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "objects/abd.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"

namespace blunt::exp {
namespace {

// Timed-loop sizes. Fixed — the step totals below are part of the report's
// exact metrics, so changing these invalidates the committed baseline.
constexpr int kStepRunsK1 = 3000;
constexpr int kStepRunsK2 = 1500;
constexpr int kLinIterations = 400;
// Large-n legs: ABD^2 at widths 256 and 1000.
constexpr int kWideK = 2;
constexpr int kWideRunsN256 = 4;
constexpr int kWideRunsN1000 = 2;

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// One weakener run at the Monte-Carlo trial configuration (kNone, no
/// metrics) over ABD^k registers of replication width `width`. Seeds mirror
/// the timed loop: run i uses coin 2i+1, sched 2i+2. `inst_out` (optional)
/// hands the finished instance back so callers can read its profiler.
sim::RunResult weakener_run(int i, int k, int width = kWeakenerNumProcesses,
                            bool profile = false,
                            adversary::McInstance* inst_out = nullptr) {
  adversary::McInstance inst = make_abd_weakener(
      static_cast<std::uint64_t>(i) * 2 + 1, k, width,
      /*metrics=*/false, sim::TraceDetail::kNone, profile);
  sim::UniformAdversary adv(static_cast<std::uint64_t>(i) * 2 + 2);
  const sim::RunResult res = inst.world->run(adv);
  if (inst_out != nullptr) *inst_out = std::move(inst);
  return res;
}

struct StepsTiming {
  std::int64_t steps = 0;
  double wall_ms = 0.0;
};

StepsTiming time_steps(int k, int runs, int width = kWeakenerNumProcesses) {
  {  // warmup, outside the clock
    adversary::McInstance inst =
        make_abd_weakener(999, k, width,
                          /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(999);
    (void)inst.world->run(adv);
  }
  StepsTiming t;
  const double t0 = now_ms();
  for (int i = 0; i < runs; ++i) {
    const sim::RunResult res = weakener_run(i, k, width);
    BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                 "hotpath weakener run did not complete");
    t.steps += res.steps;
  }
  t.wall_ms = now_ms() - t0;
  return t;
}

/// Two interleaved passes over the SAME run set: every run index executes
/// twice back to back, once billed to pass A and once to pass B, with the
/// order alternating per index so cache warmth cancels. Both passes do
/// bit-identical work (equal step totals by construction), execute within
/// microseconds of each other, and so their wall-clock spread is a tight
/// bound on this host's timer/scheduler noise — the reference CI's <=2%
/// disabled-overhead gate needs. Passes separated by seconds (the obvious
/// A ... B bracketing) drift 4-6% from frequency scaling alone, which would
/// swamp the signal the gate looks for.
std::pair<StepsTiming, StepsTiming> time_steps_ab(int k, int runs) {
  {  // warmup, outside the clock
    adversary::McInstance inst =
        make_abd_weakener(999, k, kWeakenerNumProcesses,
                          /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(999);
    (void)inst.world->run(adv);
  }
  StepsTiming a, b;
  std::vector<double> samples[2];
  samples[0].reserve(static_cast<std::size_t>(runs));
  samples[1].reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const bool a_first = (i % 2) == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool is_a = (leg == 0) == a_first;
      const double t0 = now_ms();
      const sim::RunResult res = weakener_run(i, k);
      samples[is_a ? 0 : 1].push_back(now_ms() - t0);
      BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                   "hotpath weakener run did not complete");
      (is_a ? a : b).steps += res.steps;
    }
  }
  // Trimmed sums: a single preempted run (a multi-ms hiccup against ~30us
  // runs) otherwise lands wholly in one pass and fakes a several-percent
  // spread. Dropping the slowest 1% of each pass removes scheduler outliers
  // while keeping the sum an honest per-pass cost.
  const auto trimmed_sum = [runs](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const std::size_t keep = v.size() - static_cast<std::size_t>(runs / 100);
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += v[i];
    return sum;
  };
  a.wall_ms = trimmed_sum(samples[0]);
  b.wall_ms = trimmed_sum(samples[1]);
  return {a, b};
}

struct CovStepsTiming {
  std::int64_t steps = 0;
  std::int64_t unique_schedules = 0;
  double wall_ms = 0.0;
};

/// The same timed loop as time_steps but with coverage instrumentation on:
/// the adversary wrapped in obs::ScheduleFingerprinter and every run's
/// schedule hash inserted into a CoverageMap. The step total MUST equal the
/// uninstrumented loop's (the wrapper is choice-transparent); the wall-clock
/// ratio against it is the measured coverage overhead, which CI's Release
/// gate bounds at 10%.
CovStepsTiming time_steps_coverage(int k, int runs) {
  {  // warmup, outside the clock
    adversary::McInstance inst =
        make_abd_weakener(999, k, kWeakenerNumProcesses,
                          /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(999);
    obs::ScheduleFingerprinter fp(adv);
    (void)inst.world->run(fp);
  }
  CovStepsTiming t;
  obs::CoverageMap schedules;
  const double t0 = now_ms();
  for (int i = 0; i < runs; ++i) {
    adversary::McInstance inst = make_abd_weakener(
        static_cast<std::uint64_t>(i) * 2 + 1, k, kWeakenerNumProcesses,
        /*metrics=*/false, sim::TraceDetail::kNone);
    sim::UniformAdversary adv(static_cast<std::uint64_t>(i) * 2 + 2);
    obs::ScheduleFingerprinter fp(adv);
    const sim::RunResult res = inst.world->run(fp);
    BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                 "hotpath coverage weakener run did not complete");
    t.steps += res.steps;
    schedules.insert(fp.schedule_hash());
  }
  t.wall_ms = now_ms() - t0;
  t.unique_schedules = static_cast<std::int64_t>(schedules.size());
  return t;
}

struct ProfStepsTiming {
  std::int64_t steps = 0;
  double wall_ms = 0.0;
  obs::ProfileSnapshot snapshot;
};

/// The profiled twin of time_steps: the same fixed seed sequence with
/// sim::Config::profile on. The step total MUST equal the unprofiled loop's
/// (profiling is purely observational); the merged snapshot's exact counters
/// are a pure function of the seed sequence and are reported as regression-
/// gated metrics. Wall clock here measures the ENABLED cost — the disabled
/// cost is gated separately by timing the plain loop twice (pass A before
/// this twin, pass B after) and bounding their spread.
ProfStepsTiming time_steps_profile(int k, int runs) {
  {  // warmup, outside the clock
    adversary::McInstance inst =
        make_abd_weakener(999, k, kWeakenerNumProcesses,
                          /*metrics=*/false, sim::TraceDetail::kNone,
                          /*profile=*/true);
    sim::UniformAdversary adv(999);
    (void)inst.world->run(adv);
  }
  ProfStepsTiming t;
  const double t0 = now_ms();
  for (int i = 0; i < runs; ++i) {
    adversary::McInstance inst;
    const sim::RunResult res = weakener_run(i, k, kWeakenerNumProcesses,
                                            /*profile=*/true, &inst);
    BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
                 "hotpath profiled weakener run did not complete");
    t.steps += res.steps;
    t.snapshot.merge(inst.world->profiler()->snapshot());
  }
  t.wall_ms = now_ms() - t0;
  return t;
}

/// A chaos-soak-shaped ABD history: 3 processes each write then read,
/// `ops_per_proc` rounds, scheduled uniformly at random.
lin::History make_lin_sample(int ops_per_proc, std::uint64_t seed) {
  auto w = std::make_unique<sim::World>(
      sim::Config{}, std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg("R", *w, {.num_processes = 3});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid, ops_per_proc](sim::Proc p) -> sim::Task<void> {
                     for (int i = 0; i < ops_per_proc; ++i) {
                       co_await reg.write(
                           p, sim::Value(std::int64_t{pid * 100 + i}));
                       (void)co_await reg.read(p);
                     }
                   });
  }
  sim::UniformAdversary adv(seed + 42);
  const sim::RunResult res = w->run(adv);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "hotpath lin sample did not complete");
  return lin::History::from_world(*w);
}

struct LinTiming {
  std::int64_t checks = 0;
  std::int64_t non_linearizable = 0;
  double wall_ms = 0.0;
};

LinTiming time_lin(int iterations) {
  std::vector<lin::History> samples;
  for (const std::uint64_t seed : {7ULL, 11ULL, 13ULL, 17ULL}) {
    samples.push_back(make_lin_sample(2, seed));
    samples.push_back(make_lin_sample(3, seed));
  }
  lin::RegisterSpec spec;
  for (const lin::History& h : samples) {  // warmup
    (void)lin::check_linearizable(h, spec);
  }
  LinTiming t;
  const double t0 = now_ms();
  for (int i = 0; i < iterations; ++i) {
    for (const lin::History& h : samples) {
      const lin::LinearizationResult r = lin::check_linearizable(h, spec);
      if (!r.linearizable) ++t.non_linearizable;
      ++t.checks;
    }
  }
  t.wall_ms = now_ms() - t0;
  return t;
}

// -- Parallel trial phase ----------------------------------------------------

void trial(const TrialContext& ctx, Accumulator& acc) {
  // First half of the trial space is k=1, second half k=2; in-group index i
  // reuses the timed loop's seed shape, so the merged counters are a pure
  // function of (trials), identical at every thread count.
  const std::int64_t half = ctx.trials / 2;
  const int k = ctx.trial_index < half ? 1 : 2;
  const int i = static_cast<int>(ctx.trial_index % half);
  adversary::McInstance inst;
  const sim::RunResult res =
      weakener_run(i, k, kWeakenerNumProcesses, ctx.profile, &inst);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "hotpath MC trial did not complete");
  const std::string g = k == 1 ? "k1" : "k2";
  acc.counter(g + ".runs") += 1;
  acc.counter(g + ".steps") += res.steps;
  // Profiling is observational, so the counters above are bit-identical
  // with or without --profile; the snapshot is extra data, not a perturbation.
  if (ctx.profile) record_profile(acc, "mc", *inst.world);
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& info) {
  print_header("Hotpath: scheduler steps/sec and lin-checks/sec");

  // Two interleaved plain k=1 passes (A and B) over the identical run set:
  // their spread bounds this host's disabled-path timing noise — CI's <=2%
  // profile-overhead gate compares the two passes, so a "profiling-off
  // regression" can never hide inside run-to-run jitter, and drift
  // (frequency scaling, cache warmup) that plagues separated passes cancels.
  const auto [s1, s1b] = time_steps_ab(1, kStepRunsK1);
  const StepsTiming s2 = time_steps(2, kStepRunsK2);
  const CovStepsTiming c1 = time_steps_coverage(1, kStepRunsK1);
  const ProfStepsTiming p1 = time_steps_profile(1, kStepRunsK1);
  const LinTiming lt = time_lin(kLinIterations);
  const StepsTiming w256 = time_steps(kWideK, kWideRunsN256, 256);
  const StepsTiming w1000 = time_steps(kWideK, kWideRunsN1000, 1000);

  const double sps1 = 1000.0 * static_cast<double>(s1.steps) / s1.wall_ms;
  const double sps2 = 1000.0 * static_cast<double>(s2.steps) / s2.wall_ms;
  const double sps1_cov = 1000.0 * static_cast<double>(c1.steps) / c1.wall_ms;
  const double sps1_prof = 1000.0 * static_cast<double>(p1.steps) / p1.wall_ms;
  const double sps1_b = 1000.0 * static_cast<double>(s1b.steps) / s1b.wall_ms;
  const double cps = 1000.0 * static_cast<double>(lt.checks) / lt.wall_ms;
  const double sps256 = 1000.0 * static_cast<double>(w256.steps) / w256.wall_ms;
  const double sps1000 =
      1000.0 * static_cast<double>(w1000.steps) / w1000.wall_ms;

  BLUNT_ASSERT(c1.steps == s1.steps,
               "coverage instrumentation changed the k=1 execution: "
                   << c1.steps << " != " << s1.steps);
  BLUNT_ASSERT(p1.steps == s1.steps,
               "profiling instrumentation changed the k=1 execution: "
                   << p1.steps << " != " << s1.steps);
  BLUNT_ASSERT(s1b.steps == s1.steps,
               "plain k=1 passes diverged: " << s1b.steps << " != "
                                             << s1.steps);
  BLUNT_ASSERT(
      p1.snapshot.counter(obs::ProfCounter::kStepsExecuted) == s1.steps,
      "profiler kStepsExecuted diverged from the step total");

  print_rule();
  std::printf("%-34s %12s %10s %14s\n", "workload", "work", "wall ms",
              "per sec");
  print_rule();
  std::printf("%-34s %12lld %10.1f %14.0f\n",
              "scheduler steps, weakener ABD^1",
              static_cast<long long>(s1.steps), s1.wall_ms, sps1);
  std::printf("%-34s %12lld %10.1f %14.0f\n",
              "scheduler steps, weakener ABD^2",
              static_cast<long long>(s2.steps), s2.wall_ms, sps2);
  std::printf("%-34s %12lld %10.1f %14.0f   (%.1f%% overhead, %lld schedules)\n",
              "steps ABD^1 + coverage fingerprints",
              static_cast<long long>(c1.steps), c1.wall_ms, sps1_cov,
              100.0 * (c1.wall_ms - s1.wall_ms) / s1.wall_ms,
              static_cast<long long>(c1.unique_schedules));
  std::printf("%-34s %12lld %10.1f %14.0f   (%.1f%% overhead enabled)\n",
              "steps ABD^1 + profiler",
              static_cast<long long>(p1.steps), p1.wall_ms, sps1_prof,
              100.0 * (p1.wall_ms - s1.wall_ms) / s1.wall_ms);
  std::printf("%-34s %12lld %10.1f %14.0f   (pass B, spread %.1f%%)\n",
              "scheduler steps, weakener ABD^1",
              static_cast<long long>(s1b.steps), s1b.wall_ms, sps1_b,
              100.0 * (s1b.wall_ms - s1.wall_ms) / s1.wall_ms);
  std::printf("%-34s %12lld %10.1f %14.0f\n", "Wing-Gong checks, ABD histories",
              static_cast<long long>(lt.checks), lt.wall_ms, cps);
  std::printf("%-34s %12lld %10.1f %14.0f\n",
              "scheduler steps, ABD^2 at n=256",
              static_cast<long long>(w256.steps), w256.wall_ms, sps256);
  std::printf("%-34s %12lld %10.1f %14.0f\n",
              "scheduler steps, ABD^2 at n=1000",
              static_cast<long long>(w1000.steps), w1000.wall_ms, sps1000);
  print_rule();
  std::printf("MC trial phase: k1 %lld steps / %lld runs, k2 %lld steps / "
              "%lld runs\n",
              static_cast<long long>(acc.counter_or("k1.steps")),
              static_cast<long long>(acc.counter_or("k1.runs")),
              static_cast<long long>(acc.counter_or("k2.steps")),
              static_cast<long long>(acc.counter_or("k2.runs")));

  // Exact work totals: bit-identity invariants of the kernel, regression-
  // gated against the baseline (any drift means the execution changed).
  report.set_metric_int("steps_total_k1", s1.steps);
  report.set_metric_int("steps_total_k2", s2.steps);
  report.set_metric_int("step_runs_k1", kStepRunsK1);
  report.set_metric_int("step_runs_k2", kStepRunsK2);
  report.set_metric_int("lin_checks", lt.checks);
  report.set_metric_int("lin_non_linearizable", lt.non_linearizable);
  report.set_metric_int("throughput_n256.steps", w256.steps);
  report.set_metric_int("throughput_n1000.steps", w1000.steps);
  report.set_metric_int("mc_steps_k1", acc.counter_or("k1.steps"));
  report.set_metric_int("mc_steps_k2", acc.counter_or("k2.steps"));
  report.set_metric_int("mc_runs_k1", acc.counter_or("k1.runs"));
  report.set_metric_int("mc_runs_k2", acc.counter_or("k2.runs"));
  // Coverage-instrumented twin of the k=1 loop: the step total must be
  // bit-identical (asserted above) and the unique-schedule count is a pure
  // function of the fixed seed sequence, so both are exact metrics.
  report.set_metric_int("steps_total_k1_cov", c1.steps);
  report.set_metric_int("cov_unique_schedules", c1.unique_schedules);
  // Profiler-instrumented twin of the k=1 loop: step total bit-identical
  // (asserted above), plus the snapshot's exact work counters — all pure
  // functions of the fixed seed sequence, hence regression-gated.
  report.set_metric_int("steps_total_k1_prof", p1.steps);
  report.set_metric_int(
      "prof_events_scanned",
      p1.snapshot.counter(obs::ProfCounter::kEventsScanned));
  report.set_metric_int(
      "prof_deliveries", p1.snapshot.counter(obs::ProfCounter::kDeliveries));
  report.set_metric_int(
      "prof_quorum_touches",
      p1.snapshot.counter(obs::ProfCounter::kQuorumTouches));

  // Wall clocks and throughputs: advisory in the comparator (host-relative);
  // the CI Release gate reads them straight out of the baseline and the
  // fresh report to compute the speedup ratio.
  report.add_timing_ms("steps_k1", s1.wall_ms);
  report.add_timing_ms("steps_k2", s2.wall_ms);
  report.add_timing_ms("lin_checks", lt.wall_ms);
  report.add_timing_ms("steps_per_sec_k1", sps1);
  report.add_timing_ms("steps_per_sec_k2", sps2);
  report.add_timing_ms("steps_k1_cov", c1.wall_ms);
  report.add_timing_ms("steps_per_sec_k1_cov", sps1_cov);
  report.add_timing_ms("steps_k1_prof", p1.wall_ms);
  report.add_timing_ms("steps_per_sec_k1_prof", sps1_prof);
  // The two plain passes bracketing the instrumented twins: CI's profile-
  // overhead gate bounds min/max of these (disabled-path stability).
  report.add_timing_ms("steps_k1_b", s1b.wall_ms);
  report.add_timing_ms("steps_per_sec_k1_b", sps1_b);
  report.add_timing_ms("lin_checks_per_sec", cps);
  // Large-n legs: CI's release job divides the n = 256 rate by the frozen
  // pre-overhaul kernel's (BENCH_scaling_probe_pre_overhaul.json).
  report.add_timing_ms("throughput_n256.wall", w256.wall_ms);
  report.add_timing_ms("throughput_n256.steps_per_sec", sps256);
  report.add_timing_ms("throughput_n1000.wall", w1000.wall_ms);
  report.add_timing_ms("throughput_n1000.steps_per_sec", sps1000);

  // One instrumented full-detail run so the registry section carries the
  // canonical counters like every other report.
  merge_probe(report, run_instrumented_weakener(/*coin_seed=*/0,
                                                /*sched_seed=*/0, /*k=*/2)
                          .snapshot);
  // Publishes the MC phase's "mc" snapshot when the run was profiled
  // (--profile); a no-op otherwise, keeping profile-off reports byte-stable.
  report_profile(report, acc, info);
  return lt.non_linearizable == 0 ? 0 : 1;
}

}  // namespace

Experiment make_hotpath_experiment() {
  Experiment e;
  e.name = "hotpath";
  e.description =
      "kernel throughput: scheduler steps/sec (weakener ABD^k at kNone, "
      "plus ABD^2 at n=256/n=1000) and Wing-Gong lin-checks/sec; timed "
      "loops in finalize, parallel MC trial phase for the thread-count "
      "bit-identity sweep";
  e.default_trials = 600;
  e.default_seed = 0;
  e.seed_derivation = SeedDerivation::kLinear;
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
