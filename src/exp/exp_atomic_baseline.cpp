// E1 (Appendix A.1): the weakener over ATOMIC registers.
//
// Reproduces: "p2 terminates with probability at least one-half, for any
// adversary" — and exactly one-half against the optimal strong adversary.
// Three independent computations agree:
//   1. the exact game solver over the atomic-weakener game,
//   2. the exhaustive schedule/coin explorer on the real simulator,
//   3. (as a weak-adversary contrast) best-of-20 random schedulers.
//
// Engine port: the random-scheduler baseline is the trial phase. Trial i
// runs scheduler seed s = i/200 against coin seed s·1000003 + t, t = i%200;
// finalize pools the per-seed tallies and picks the best seed. The exact
// solve, the explorer and the instrumented probe run in finalize.
#include <chrono>
#include <cstdio>

#include "adversary/explorer.hpp"
#include "common/assert.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "game/solver.hpp"
#include "game/weakener_game.hpp"
#include "objects/atomic.hpp"

namespace blunt::exp {
namespace {

constexpr int kSchedulerSeeds = 20;
constexpr int kTrialsPerSeed = 200;

/// Installs the weakener over two fresh atomic registers in `inst.world`.
template <typename Instance>
void install_atomic_weakener(Instance& inst) {
  auto r = std::make_shared<objects::AtomicRegister>("R", *inst.world,
                                                     sim::Value{});
  auto c = std::make_shared<objects::AtomicRegister>(
      "C", *inst.world, sim::Value(std::int64_t{-1}));
  auto out = std::make_shared<programs::WeakenerOutcome>();
  programs::install_weakener(*inst.world, *r, *c, *out);
  inst.bad = [out] { return out->looped(); };
  inst.owned = {r, c, out};
}

/// Monte-Carlo/probe builder; `metrics` flips on the world's observability
/// registry for the instrumented probe run the report carries.
adversary::McInstance atomic_weakener_mc(std::uint64_t coin_seed,
                                         bool metrics) {
  adversary::McInstance inst;
  inst.world = std::make_unique<sim::World>(
      sim::Config{.metrics = metrics},
      std::make_unique<sim::SeededCoin>(coin_seed));
  install_atomic_weakener(inst);
  return inst;
}

std::string tally_key(std::uint64_t s) { return "mc_s" + std::to_string(s); }

void trial(const TrialContext& ctx, Accumulator& acc) {
  const auto s = static_cast<std::uint64_t>(ctx.trial_index / kTrialsPerSeed);
  const auto t = static_cast<std::uint64_t>(ctx.trial_index % kTrialsPerSeed);
  adversary::McInstance inst =
      atomic_weakener_mc(s * 1000003 + t, /*metrics=*/false);
  sim::UniformAdversary adv(s);
  const sim::RunResult res = inst.world->run(adv);
  BLUNT_ASSERT(res.status == sim::RunStatus::kCompleted,
               "Monte-Carlo trial did not complete: " << to_string(res.status));
  const bool bad = inst.bad();
  acc.tally(tally_key(s)).add(bad);

  // Search-level counters: one schedules_explored per scheduler seed, pinned
  // to t == 0 so the count is a function of the trial space.
  obs::MetricsRegistry m;
  if (t == 0) m.counter(obs::kMcSchedulesExplored)->inc();
  m.counter(obs::kMcTrials)->inc();
  if (bad) m.counter(obs::kMcBadOutcomes)->inc();
  m.histogram(obs::kMcStepsPerTrial)->observe(static_cast<double>(res.steps));
  acc.registry().merge(m.snapshot());
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& /*info*/) {
  print_header(
      "E1: weakener over atomic registers (paper: termination >= 1/2, "
      "Appendix A.1)");

  const auto t0 = std::chrono::steady_clock::now();
  game::SolveStats stats;
  const Rational game_value = game::solve(game::AtomicWeakenerGame{}, &stats);
  const double game_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto t1 = std::chrono::steady_clock::now();
  const adversary::ExplorerResult ex =
      adversary::explore([](std::vector<int> coins) {
        adversary::Instance inst = adversary::make_instance(std::move(coins));
        install_atomic_weakener(inst);
        return inst;
      });
  const double ex_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  BernoulliEstimator pooled;
  double best_rate = 0.0;
  for (std::uint64_t s = 0; s < kSchedulerSeeds; ++s) {
    const BernoulliEstimator& est = acc.tally(tally_key(s));
    pooled.merge(est);
    if (est.mean() > best_rate) best_rate = est.mean();
  }

  print_rule();
  std::printf("%-44s %12s %14s\n", "method", "Prob[bad]", "termination");
  print_rule();
  std::printf("%-44s %12s %14s   (%zu states, %.3fs)\n",
              "exact game solver (optimal strong adversary)",
              game_value.to_string().c_str(),
              (Rational(1) - game_value).to_string().c_str(),
              stats.states_visited, game_secs);
  std::printf("%-44s %12s %14s   (%ld executions, %.3fs)\n",
              "exhaustive explorer on the simulator",
              ex.value.to_string().c_str(),
              (Rational(1) - ex.value).to_string().c_str(), ex.executions,
              ex_secs);
  std::printf("%-44s %12.4f %14.4f   (pooled %lld trials)\n",
              "best-of-20 random schedulers (weak baseline)", best_rate,
              1.0 - best_rate, static_cast<long long>(pooled.trials()));
  print_rule();
  const bool reproduces =
      game_value == Rational(1, 2) && ex.value == Rational(1, 2);
  std::printf("paper: Prob[bad] = 1/2 exactly; both exact methods %s\n",
              reproduces ? "REPRODUCE it" : "DISAGREE (!)");

  set_exact_probability(report, "bad_probability", game_value.to_double());
  report.set_metric_string("bad_probability_exact", game_value.to_string());
  report.set_metric("termination_probability",
                    (Rational(1) - game_value).to_double());
  set_exact_probability(report, "bad_probability_explorer",
                        ex.value.to_double());
  set_bernoulli_metric(report, "bad_probability_mc_pooled", pooled);
  report.set_metric("bad_probability_mc_best_seed", best_rate);
  report.set_metric_int("explorer_executions", ex.executions);
  report.set_metric_int("game_states_visited",
                        static_cast<std::int64_t>(stats.states_visited));
  report.set_metric_bool("reproduces_paper", reproduces);
  report.add_timing_ms("game_solve", game_secs * 1000.0);
  report.add_timing_ms("explorer", ex_secs * 1000.0);
  report.set_environment_int("mc_scheduler_seeds", kSchedulerSeeds);
  report.set_environment_int("mc_trials_per_seed", kTrialsPerSeed);
  // Registry: the MC search counters plus one instrumented atomic-weakener
  // run (step kinds, invocation latencies; atomic registers send nothing,
  // so the net.* counters stay zero by construction).
  report.merge_registry(acc.registry());
  adversary::McInstance probe =
      atomic_weakener_mc(/*coin_seed=*/1, /*metrics=*/true);
  sim::UniformAdversary probe_adv(1);
  (void)probe.world->run(probe_adv);
  merge_probe(report, probe.world->metrics()->snapshot());
  return 0;
}

}  // namespace

Experiment make_atomic_baseline_experiment() {
  Experiment e;
  e.name = "atomic_baseline";
  e.description =
      "weakener over atomic registers: exact solve + explorer (1/2) vs "
      "best-of-20 random schedulers (fixed trial space; --trials ignored)";
  e.default_trials = kSchedulerSeeds * kTrialsPerSeed;
  e.default_seed = 0;
  // Coin and scheduler seeds derive from the trial index alone, as in the
  // pre-port serial search.
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = [](std::int64_t) {
    return std::int64_t{kSchedulerSeeds * kTrialsPerSeed};
  };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
