// E3 (Appendix A.3 / Theorem 4.2): the headline table — weakener
// bad-outcome probability over ABD^k as k grows.
//
// Columns per k:
//   exact Prob[bad]     — the optimal strong adversary's value, solved
//                         exactly on the phase-level game (src/game);
//   exact termination   — 1 minus that;
//   Thm 4.2 bound       — 1/2 + (1 − ((k−1)/k)²) · 1/2, the paper's generic
//                         guarantee (r = 1, n = 3, Prob[O] = 1, Prob[O_a] = ½);
//   random-sched MC     — a weak-adversary baseline on the real simulator.
//
// Paper shape reproduced: k = 1 gives 1 (zero termination, Appendix A.2);
// k = 2 gives exactly 5/8 (the refined A.3.2 bound is tight, termination
// 3/8 >= the generic 1/8); values decrease toward the atomic 1/2 as k grows.
// Beyond the paper: the exact values follow 1/2 + 1/(2k²) for k >= 2. The
// k = 2 row also carries Appendix A.3.2's refined-bound verdict and prints
// one optimal adversary line of play.
//
// Engine port: the Monte-Carlo baseline is the trial phase. The trial space
// is structured — index i encodes (k, scheduler seed s, trial t) as
// k = i/500 + 1, s = (i%500)/100, t = i%100, so --trials picks the k range —
// and the coin seeds reproduce the pre-port serial search exactly
// (coin = s·1000003 + t, scheduler = s), so the ported MC columns match the
// pre-port bench bit for bit. The exact game solves stay serial, in
// finalize.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.hpp"
#include "core/bounds.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "game/abd_phase_game.hpp"
#include "game/solver.hpp"

namespace blunt::exp {
namespace {

constexpr int kSchedulerSeeds = 5;
constexpr int kTrialsPerSeed = 100;
constexpr std::int64_t kTrialsPerK = kSchedulerSeeds * kTrialsPerSeed;
constexpr int kStrategyMoves = 18;  // printed prefix of the ABD^2 line of play

/// --trials picks the k range: k_max = ceil(trials / 500), clamped to 1..4
/// (the default 1500 sweeps k = 1..3; k = 4 adds ~40s of exact solving).
std::int64_t resolve_trials(std::int64_t requested) {
  if (requested < 0) requested = 3 * kTrialsPerK;
  const std::int64_t max_k =
      std::clamp<std::int64_t>((requested + kTrialsPerK - 1) / kTrialsPerK, 1,
                               4);
  return max_k * kTrialsPerK;
}

std::string tally_key(int k, std::uint64_t s) {
  return "mc_k" + std::to_string(k) + "_s" + std::to_string(s);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const int k = static_cast<int>(ctx.trial_index / kTrialsPerK) + 1;
  const std::uint64_t s =
      static_cast<std::uint64_t>((ctx.trial_index % kTrialsPerK) /
                                 kTrialsPerSeed);
  const std::uint64_t t =
      static_cast<std::uint64_t>(ctx.trial_index % kTrialsPerSeed);

  adversary::McInstance inst =
      make_abd_weakener(s * 1000003 + t, k, kWeakenerNumProcesses,
                        /*metrics=*/false, sim::TraceDetail::kNone);
  sim::UniformAdversary adv(s);
  sim::RunResult res;
  if (ctx.coverage) {
    // Choice-transparent wrapper: the historical (pre-port, bit-compatible)
    // execution is untouched; only fingerprints are recorded on the side.
    obs::ScheduleFingerprinter fp(adv);
    res = inst.world->run(fp);
    record_coverage(acc, fp, *inst.world);
  } else {
    res = inst.world->run(adv);
  }
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "Monte-Carlo trial did not complete: " << to_string(res.status));
  const bool bad = inst.bad();
  acc.tally(tally_key(k, s)).add(bad);

  // Search-level observability counters: one schedules_explored per (k, s)
  // — pinned to t == 0 so the count is a function of the trial space, not
  // of who ran what.
  obs::MetricsRegistry m;
  if (t == 0) m.counter(obs::kMcSchedulesExplored)->inc();
  m.counter(obs::kMcTrials)->inc();
  if (bad) m.counter(obs::kMcBadOutcomes)->inc();
  m.histogram(obs::kMcStepsPerTrial)->observe(static_cast<double>(res.steps));
  acc.registry().merge(m.snapshot());
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& info) {
  const int max_k = static_cast<int>(info.trials / kTrialsPerK);

  print_header(
      "E3: weakener over ABD^k — exact adversary value vs Theorem 4.2 "
      "(r=1, n=3)");
  print_rule();
  std::printf("%4s %14s %14s %16s %16s %12s\n", "k", "exact bad",
              "exact term.", "Thm4.2 bad <=", "Thm4.2 term. >=",
              "random MC");
  print_rule();
  std::printf("%4s %14s %14s %16s %16s %12s   <- atomic objects (O_a)\n",
              "-", "1/2", "1/2", "-", "-", "-");

  const Rational prob_lin(1);        // Prob[O]: Appendix A.2
  const Rational prob_atomic(1, 2);  // Prob[O_a]: Appendix A.1

  obs::JsonArray sweep_rows;
  // k = 2 is Appendix A.3.2's case: it also extracts one optimal line of
  // play, from the same memo that yields the value and the state count.
  std::vector<game::StrategyEdge> strategy;
  for (int k = 1; k <= max_k; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    game::Solution sol = game::solve_with_strategy(
        game::AbdPhaseWeakenerGame(k), k == 2 ? kStrategyMoves : 0);
    if (k == 2) strategy = std::move(sol.strategy);
    const Rational& exact = sol.value;
    const game::SolveStats& stats = sol.stats;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    report.add_timing_ms("solve_k" + std::to_string(k), secs * 1000.0);
    const Rational bound =
        core::theorem42_bound(k, /*r=*/1, /*n=*/3, prob_lin, prob_atomic);

    BernoulliEstimator pooled;
    for (std::uint64_t s = 0; s < kSchedulerSeeds; ++s) {
      pooled.merge(acc.tally(tally_key(k, s)));
    }

    std::printf("%4d %14s %14s %16s %16s %12.3f   (%zu states, %.1fs)\n", k,
                exact.to_string().c_str(),
                (Rational(1) - exact).to_string().c_str(),
                bound.to_string().c_str(),
                (Rational(1) - bound).to_string().c_str(), pooled.mean(),
                stats.states_visited, secs);

    obs::JsonObject row;
    row["k"] = obs::Json(k);
    row["bad_exact"] = obs::Json(exact.to_string());
    row["bad_exact_double"] = obs::Json(exact.to_double());
    row["thm42_bound"] = obs::Json(bound.to_string());
    row["bad_mc"] = obs::Json(pooled.mean());
    row["game_states"] = obs::Json(static_cast<std::int64_t>(
        stats.states_visited));
    sweep_rows.emplace_back(std::move(row));
    if (k == std::min(2, max_k)) {  // headline row: ABD² when swept
      set_exact_probability(report, "bad_probability", exact.to_double());
      report.set_metric_string("bad_probability_exact", exact.to_string());
      set_bernoulli_metric(report, "bad_probability_mc_pooled", pooled);
      set_thm42_instance(report, k, /*r=*/1,
                         /*n=*/kWeakenerNumProcesses,
                         prob_lin.to_double(), prob_atomic.to_double(),
                         exact.to_double());
    }
    if (k == 2) {
      report.set_metric("termination_probability",
                        (Rational(1) - exact).to_double());
      report.set_metric_bool("refined_bound_tight", exact == Rational(5, 8));
      report.set_metric_int("strategy_moves_extracted",
                            static_cast<std::int64_t>(strategy.size()));
    }
  }
  print_rule();
  std::printf(
      "paper checkpoints: k=1 bad=1 (A.2); k=2 bad<=5/8 (A.3.2) — the exact\n"
      "value IS 5/8, so the refined analysis is tight; generic Thm 4.2 gives\n"
      "only 7/8. Exact values follow 1/2 + 1/(2k^2) for k>=2 (beyond-paper).\n");
  if (!strategy.empty()) {
    std::printf("\nfirst moves of one optimal ABD^2 adversary line of play:\n");
    for (std::size_t i = 0; i < strategy.size(); ++i) {
      std::printf("  %2zu. %-44s (subtree value %s)\n", i + 1,
                  strategy[i].label.c_str(),
                  strategy[i].value.to_string().c_str());
    }
  }

  report.set_metric_json("sweep", obs::Json(std::move(sweep_rows)));
  report.set_environment_int("max_k", max_k);
  report.set_environment_int("num_processes", kWeakenerNumProcesses);
  report.merge_registry(acc.registry());
  merge_probe(report,
              run_instrumented_weakener(/*coin_seed=*/0, /*sched_seed=*/0,
                                        /*k=*/std::min(2, max_k))
                  .snapshot);
  report_coverage(report, acc, info);
  return 0;
}

}  // namespace

Experiment make_abd_k_sweep_experiment() {
  Experiment e;
  e.name = "abd_k_sweep";
  e.description =
      "weakener over ABD^k: exact adversary value vs Theorem 4.2 bound + MC "
      "baseline (--trials picks k = 1..ceil(trials/500), at most 4)";
  e.default_trials = 3 * kTrialsPerK;
  e.default_seed = 0;
  // The trial bodies derive their coin seeds from the trial index alone
  // (reproducing the pre-port serial search seeds), so kLinear
  // keeps derived seeds == historical seeds and the committed baselines
  // bit-for-bit valid.
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = resolve_trials;
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
