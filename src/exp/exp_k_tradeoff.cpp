// E6 (Section 4.2 / Section 7): the time-complexity-versus-probability
// trade-off, measured.
//
// Part 1: cost of ABD^k — messages and scheduler steps per weakener run on
// the real protocol grow linearly in k while the guaranteed bad-outcome
// bound shrinks.
//
// Part 2: the Section 7 round-based refinement. A T-round weakener makes
// r = T program random steps; the global Theorem 4.2 bound degrades with T,
// but because the rounds are communication-closed (fresh registers per
// round), a per-round analysis applies with r_eff = 1, giving
// 1 − (1 − p_round)^T with p_round the single-round bound — far stronger for
// large T. Both curves are printed, plus measured random-scheduler rates.
//
// Engine port: trials [0, 240) are part 1 — k = kCostKs[i/40], seed = i%40;
// trials [240, 480) are part 2 — T = kRounds[j/60], seed = j%60 with
// j = i − 240. Both reproduce the pre-port per-seed worlds exactly. The
// exact round-game solves stay in finalize.
#include <cstdio>
#include <iterator>

#include "common/stats.hpp"
#include "core/bounds.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "game/solver.hpp"
#include "game/weakener_game.hpp"
#include "programs/rounds.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

constexpr int kCostKs[] = {1, 2, 3, 4, 6, 8};
constexpr int kRounds[] = {1, 2, 4, 8};
constexpr int kRunsPerK = 40;
constexpr int kRoundSeeds = 60;
constexpr int kRoundsK = 2;
constexpr std::int64_t kCostTrials = std::size(kCostKs) * kRunsPerK;
constexpr std::int64_t kTrials =
    kCostTrials + std::size(kRounds) * kRoundSeeds;

std::string key(const char* prefix, int v) {
  return std::string(prefix) + std::to_string(v);
}

void cost_trial(int k, std::uint64_t seed, Accumulator& acc) {
  adversary::McInstance inst = make_abd_weakener(
      seed, k, kWeakenerNumProcesses, /*metrics=*/true);
  sim::UniformAdversary adv(seed + 99);
  const sim::RunResult res = inst.world->run(adv);
  // Every run's registry (messages, steps by kind, preamble iterations)
  // lands in the report; counters add across merges.
  acc.registry().merge(inst.world->metrics()->snapshot());
  if (res.status != sim::RunStatus::kCompleted) return;
  // owned[0] and owned[1] are the R and C AbdRegisters.
  const auto* r = static_cast<const objects::AbdRegister*>(inst.owned[0].get());
  const auto* c = static_cast<const objects::AbdRegister*>(inst.owned[1].get());
  acc.stat(key("r_msgs_k", k)).add(r->messages_sent());
  acc.stat(key("c_msgs_k", k)).add(c->messages_sent());
  acc.stat(key("steps_k", k)).add(res.steps);
}

void rounds_trial(int t_rounds, std::uint64_t seed, Accumulator& acc) {
  auto world = std::make_unique<sim::World>(
      sim::Config{400000, 0}, std::make_unique<sim::SeededCoin>(seed));
  std::vector<std::shared_ptr<objects::RegisterObject>> rs, cs;
  for (int t = 0; t < t_rounds; ++t) {
    rs.push_back(std::make_shared<objects::AbdRegister>(
        "R" + std::to_string(t), *world,
        objects::AbdRegister::Options{.num_processes = 3,
                                      .preamble_iterations = kRoundsK}));
    cs.push_back(std::make_shared<objects::AbdRegister>(
        "C" + std::to_string(t), *world,
        objects::AbdRegister::Options{.num_processes = 3,
                                      .initial = sim::Value(std::int64_t{-1}),
                                      .preamble_iterations = kRoundsK}));
  }
  programs::RoundsOutcome out;
  programs::install_round_weakener(*world, rs, cs, out);
  sim::UniformAdversary adv(seed * 31 + 7);
  if (world->run(adv).status != sim::RunStatus::kCompleted) return;
  acc.tally(key("bad_T", t_rounds)).add(out.any_looped());
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const std::int64_t i = ctx.trial_index;
  if (i < kCostTrials) {
    cost_trial(kCostKs[i / kRunsPerK],
               static_cast<std::uint64_t>(i % kRunsPerK), acc);
  } else {
    const std::int64_t j = i - kCostTrials;
    rounds_trial(kRounds[j / kRoundSeeds],
                 static_cast<std::uint64_t>(j % kRoundSeeds), acc);
  }
}

void report_costs(obs::BenchReport& report, const Accumulator& acc) {
  print_header("E6a: cost of ABD^k (weakener run: messages and steps vs k)");
  print_rule();
  std::printf("%4s %14s %14s %14s %18s\n", "k", "R msgs/run", "C msgs/run",
              "steps/run", "Thm4.2 term. >=");
  print_rule();
  obs::JsonArray cost_rows;
  for (const int k : kCostKs) {
    const RunningStats& r_msgs = acc.stat(key("r_msgs_k", k));
    const RunningStats& c_msgs = acc.stat(key("c_msgs_k", k));
    const RunningStats& steps = acc.stat(key("steps_k", k));
    const Rational term =
        Rational(1) -
        core::theorem42_bound(k, 1, 3, Rational(1), Rational(1, 2));
    std::printf("%4d %14.1f %14.1f %14.1f %18s\n", k, r_msgs.mean(),
                c_msgs.mean(), steps.mean(), term.to_string().c_str());

    obs::JsonObject row;
    row["k"] = obs::Json(k);
    row["r_messages_per_run"] = obs::Json(r_msgs.mean());
    row["c_messages_per_run"] = obs::Json(c_msgs.mean());
    row["steps_per_run"] = obs::Json(steps.mean());
    row["steps_per_run_stddev"] = obs::Json(steps.stddev());
    row["thm42_termination_bound"] = obs::Json(term.to_string());
    cost_rows.emplace_back(std::move(row));
  }
  report.set_metric_json("abd_k_costs", obs::Json(std::move(cost_rows)));
  report.merge_registry(acc.registry());
  print_rule();
  std::printf("shape: cost grows ~linearly in k; the guarantee improves "
              "toward the atomic 1/2.\n");
}

void report_rounds(obs::BenchReport& report, const Accumulator& acc) {
  print_header(
      "E6b: round-based programs (Section 7): global bound vs "
      "communication-closed per-round bound, k = 2");
  print_rule();
  std::printf("%4s %6s %16s %20s %24s %14s\n", "T", "r",
              "exact atomic bad", "global Thm4.2 bad<=",
              "per-round composed bad<=", "random MC");
  print_rule();
  obs::JsonArray round_rows;
  for (const int t_rounds : kRounds) {
    // Global: r = T random steps, one application of the theorem.
    const Rational global = core::theorem42_bound(kRoundsK, t_rounds, 3,
                                                  Rational(1), Rational(1, 2));
    // Communication-closed: each round alone has r_eff = 1; the program is
    // bad if ANY round is bad: 1 - (1 - p_round)^T.
    const Rational p_round =
        core::theorem42_bound(kRoundsK, 1, 3, Rational(1), Rational(1, 2));
    const Rational composed =
        Rational(1) - (Rational(1) - p_round).pow(t_rounds);
    // Exact atomic T-round optimum (solvable for T <= 3): 1 - (1/2)^T,
    // confirming the per-round independence the composition relies on.
    const Rational exact_atomic =
        t_rounds <= 3 ? game::solve(game::AtomicRoundsWeakenerGame(t_rounds))
                      : Rational(1) - Rational(1, 2).pow(t_rounds);
    const BernoulliEstimator& mc = acc.tally(key("bad_T", t_rounds));

    std::printf("%4d %6d %16s %20s %24s %14.3f\n", t_rounds, t_rounds,
                exact_atomic.to_string().c_str(), global.to_string().c_str(),
                composed.to_string().c_str(), mc.mean());

    obs::JsonObject row;
    row["rounds"] = obs::Json(t_rounds);
    row["exact_atomic_bad"] = obs::Json(exact_atomic.to_string());
    row["global_thm42_bound"] = obs::Json(global.to_string());
    row["per_round_composed_bound"] = obs::Json(composed.to_string());
    row["per_round_composed_bound_double"] = obs::Json(composed.to_double());
    row["bad_mc"] = obs::Json(mc.mean());
    round_rows.emplace_back(std::move(row));
    if (t_rounds == 1) {
      // Headline: the single-round ABD² bound (the generic 7/8).
      set_exact_probability(report, "bad_probability", composed.to_double());
      report.set_metric_string("bad_probability_exact", composed.to_string());
    }
  }
  report.set_metric_json("round_composition", obs::Json(std::move(round_rows)));
  print_rule();
  std::printf(
      "shape: the global bound is vacuous once r >= k; the per-round bound "
      "stays useful\nfor any T — the Section 7 refinement.\n");
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& /*info*/) {
  report_costs(report, acc);
  report_rounds(report, acc);
  report.set_environment_int("part1_runs_per_k", kRunsPerK);
  report.set_environment_int("part2_mc_seeds", kRoundSeeds);
  report.set_environment_int("num_processes", kWeakenerNumProcesses);
  return 0;
}

}  // namespace

Experiment make_k_tradeoff_experiment() {
  Experiment e;
  e.name = "k_tradeoff";
  e.description =
      "ABD^k cost vs guarantee, and the Section 7 per-round bound vs the "
      "global one (fixed trial space; --trials ignored)";
  e.default_trials = kTrials;
  e.default_seed = 0;
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = [](std::int64_t) { return kTrials; };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
