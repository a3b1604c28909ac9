// Application-level exhibit: Ben-Or-style randomized consensus over the
// register catalogue (the class of programs the paper's introduction
// motivates).
//
// Safety (agreement, validity) holds for every implementation on every run —
// linearizability preserves safety properties. Termination is probabilistic;
// under the (weak) random scheduler all implementations decide within a few
// rounds; the implementation changes the cost (scheduler steps per decision)
// — and, per the paper, a STRONG adversary's ability to delay termination,
// which Theorem 4.2 caps for the transformed objects.
//
// Engine port: trial i runs implementation i/60 with seed i%60, the pre-port
// per-seed world exactly. One instrumented run per implementation feeds the
// registry section from finalize.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>

#include "common/stats.hpp"
#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "objects/abd.hpp"
#include "objects/atomic.hpp"
#include "objects/vitanyi.hpp"
#include "programs/ben_or.hpp"
#include "sim/adversaries.hpp"

namespace blunt::exp {
namespace {

using programs::BenOrConfig;
using programs::BenOrOutcome;
using programs::RegisterFactory;

struct Impl {
  const char* name;
  RegisterFactory (*make)(sim::World&);
};

const Impl kImpls[] = {
    {"atomic registers",
     [](sim::World& w) -> RegisterFactory {
       return [&w](std::string name) {
         return std::make_shared<objects::AtomicRegister>(std::move(name), w,
                                                          sim::Value{});
       };
     }},
    {"ABD (k=1)",
     [](sim::World& w) -> RegisterFactory {
       return [&w](std::string name) {
         return std::make_shared<objects::AbdRegister>(
             std::move(name), w,
             objects::AbdRegister::Options{.num_processes = 3});
       };
     }},
    {"ABD^2",
     [](sim::World& w) -> RegisterFactory {
       return [&w](std::string name) {
         return std::make_shared<objects::AbdRegister>(
             std::move(name), w,
             objects::AbdRegister::Options{.num_processes = 3,
                                           .preamble_iterations = 2});
       };
     }},
    {"Vitanyi-Awerbuch (k=1)",
     [](sim::World& w) -> RegisterFactory {
       return [&w](std::string name) {
         return std::make_shared<objects::VitanyiRegister>(
             std::move(name), w,
             objects::VitanyiRegister::Options{.num_processes = 3});
       };
     }},
};
constexpr int kRunsPerImpl = 60;
constexpr std::int64_t kTrials = std::size(kImpls) * kRunsPerImpl;

std::string key(const char* prefix, std::int64_t impl) {
  return std::string(prefix) + "_" + std::to_string(impl);
}

void trial(const TrialContext& ctx, Accumulator& acc) {
  const std::int64_t impl = ctx.trial_index / kRunsPerImpl;
  const auto seed = static_cast<std::uint64_t>(ctx.trial_index % kRunsPerImpl);
  auto w = std::make_unique<sim::World>(
      sim::Config{4000000, 0}, std::make_unique<sim::SeededCoin>(seed));
  BenOrConfig cfg{.num_processes = 3, .max_rounds = 8, .inputs = {0, 1, 1}};
  BenOrOutcome out;
  auto regs = programs::install_ben_or(*w, cfg, kImpls[impl].make(*w), out);
  sim::UniformAdversary adv(seed * 17 + 3);
  const sim::RunResult res = w->run(adv);
  if (res.status != sim::RunStatus::kCompleted) return;
  acc.stat(key("steps", impl)).add(res.steps);
  if (out.all_decided()) {
    ++acc.counter(key("decided", impl));
    int worst = 0;
    for (const int r : out.decided_round) worst = std::max(worst, r);
    acc.stat(key("rounds", impl)).add(worst);
  }
  if (out.agreement()) ++acc.counter(key("agree", impl));
  if (out.validity(cfg.inputs)) ++acc.counter(key("valid", impl));
}

int finalize(obs::BenchReport& report, const Accumulator& acc,
             const RunInfo& /*info*/) {
  print_header(
      "Ben-Or randomized consensus over the register catalogue (3 processes, "
      "inputs 0,1,1)");
  print_rule();
  std::printf("%-26s %8s %10s %10s %10s %12s %10s\n", "registers", "runs",
              "decided", "agree", "valid", "rounds avg", "steps avg");
  print_rule();
  obs::JsonArray impl_rows;
  std::int64_t pooled_decided = 0;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(std::size(kImpls));
       ++i) {
    const int decided = static_cast<int>(acc.counter_or(key("decided", i)));
    const int agree = static_cast<int>(acc.counter_or(key("agree", i)));
    const int valid = static_cast<int>(acc.counter_or(key("valid", i)));
    const RunningStats& rounds = acc.stat(key("rounds", i));
    const RunningStats& steps = acc.stat(key("steps", i));
    std::printf("%-26s %8d %10d %10d %10d %12.2f %10.0f\n", kImpls[i].name,
                kRunsPerImpl, decided, agree, valid, rounds.mean(),
                steps.mean());

    // One instrumented Ben-Or run per implementation: the registry
    // accumulates step kinds, messages, and preamble iterations across rows.
    {
      auto w = std::make_unique<sim::World>(
          sim::Config{.max_steps = 4000000, .metrics = true},
          std::make_unique<sim::SeededCoin>(1));
      BenOrConfig cfg{.num_processes = 3, .max_rounds = 8,
                      .inputs = {0, 1, 1}};
      BenOrOutcome out;
      auto regs = programs::install_ben_or(*w, cfg, kImpls[i].make(*w), out);
      sim::UniformAdversary adv(20);
      (void)w->run(adv);
      report.merge_registry(w->metrics()->snapshot());
    }

    obs::JsonObject jrow;
    jrow["registers"] = obs::Json(std::string(kImpls[i].name));
    jrow["runs"] = obs::Json(kRunsPerImpl);
    jrow["decided"] = obs::Json(decided);
    jrow["agreement"] = obs::Json(agree);
    jrow["validity"] = obs::Json(valid);
    jrow["rounds_avg"] = obs::Json(rounds.mean());
    jrow["steps_avg"] = obs::Json(steps.mean());
    impl_rows.emplace_back(std::move(jrow));
    pooled_decided += decided;
  }
  // Bad outcome for consensus = not everyone decided within max_rounds
  // (under the weak random scheduler; expected ~0 for every implementation).
  set_bernoulli_metric(report, "bad_probability", kTrials - pooled_decided,
                       kTrials);
  report.set_metric_json("implementations", obs::Json(std::move(impl_rows)));
  report.set_environment_int("runs_per_impl", kRunsPerImpl);
  print_rule();
  std::printf(
      "safety (agreement, validity) is 100%% for every implementation — "
      "linearizability\npreserves safety; the implementation only changes "
      "cost and the STRONG adversary's\nleverage over termination "
      "(Theorem 4.2 caps it for the transformed objects).\n");
  return 0;
}

}  // namespace

Experiment make_consensus_experiment() {
  Experiment e;
  e.name = "consensus";
  e.description =
      "Ben-Or consensus over atomic, ABD, ABD^2 and VA registers: decision "
      "rate, safety, cost (fixed trial space; --trials ignored)";
  e.default_trials = kTrials;
  e.default_seed = 0;
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = [](std::int64_t) { return kTrials; };
  e.trial = trial;
  e.finalize = finalize;
  return e;
}

}  // namespace blunt::exp
