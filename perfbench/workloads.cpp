#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rational.hpp"
#include "exp/engine.hpp"
#include "exp/experiment.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "game/abd_phase_game.hpp"
#include "game/solver.hpp"
#include "harness.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/spec.hpp"
#include "objects/abd.hpp"
#include "programs/weakener.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"
#include "sim/world.hpp"

namespace perfbench {

// VmHWM, not getrusage: Linux carries ru_maxrss over execve, so a small
// program started by a large one would report its parent's peak.
std::int64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;  // "VmHWM:   1234 kB"
    }
  }
  return 0;
}

std::int64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

namespace {

namespace exp = blunt::exp;
namespace fault = blunt::fault;
namespace game = blunt::game;
namespace lin = blunt::lin;
namespace objects = blunt::objects;
namespace programs = blunt::programs;
namespace sim = blunt::sim;
using blunt::Pid;
using blunt::Rational;

using Counters = std::map<std::string, std::int64_t>;

[[nodiscard]] std::int64_t get(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

constexpr int kPreambleK = 2;  // ABD^2 everywhere
constexpr double kNsPerMs = 1e6;
constexpr double kNsPerS = 1e9;

// -- Simulator workloads -----------------------------------------------------

enum class Mode {
  kPlain,     // World::run, as a user runs a trial
  kTraced,    // the external step loop timing each layer call
  kProfiled,  // World::run with sim::Config::profile (RunOptions::profile)
};

struct SimSpec {
  std::string name;
  bool chaos = false;  // false: the weakener at replication width `width`
  int width = 3;       // weakener only; chaos_lin has kChaosReplicas
  int batch_trials = 0;   // trials per run_trials call
  int pinned_trials = 0;  // every phase runs this prefix; a batch multiple
  int warmup_trials = 0;  // set-up runs the first trials of the stream
  int setups = 0;         // set-up repetitions; setup_s is their median
  int max_trials = 0;     // caps the sample buffer, so its size is fixed
  int tail_percentile = 99;  // trial_ms_p99 reports this percentile
  // Exact totals of the pinned prefix under kDefaultSeed. Keys missing from
  // a phase's counters (the traced-only ones, in a plain phase) are skipped.
  Counters pinned;
};

/// Layer time and work summed over the traced trials of a phase.
struct Layers {
  std::int64_t trials = 0;
  std::int64_t build_ns = 0;
  std::int64_t enabled_ns = 0;
  std::int64_t enabled_calls = 0;
  std::int64_t enabled_len = 0;
  std::int64_t choose_ns = 0;
  std::array<std::int64_t, 4> exec_ns{};  // indexed by sim::Event::Kind
  std::array<std::int64_t, 4> exec_n{};
  std::int64_t plan_ns = 0;
  std::int64_t lin_ns = 0;
};

/// World::run's loop, driven from outside through the World's public
/// stepping interface with each call timed. Same calls in the same order,
/// so the execution is World::run's to the bit.
sim::RunStatus traced_run(sim::World& w, sim::Adversary& adv, Layers& l) {
  while (w.steps_executed() < w.config().max_steps) {
    if (w.finished()) return sim::RunStatus::kCompleted;
    const std::int64_t t0 = now_ns();
    const std::vector<sim::Event>& events = w.enabled_events();
    const std::int64_t t1 = now_ns();
    l.enabled_ns += t1 - t0;
    ++l.enabled_calls;
    l.enabled_len += static_cast<std::int64_t>(events.size());
    if (events.empty()) return sim::RunStatus::kDeadlock;
    const std::size_t idx = adv.choose(w, events);
    const std::int64_t t2 = now_ns();
    l.choose_ns += t2 - t1;
    if (idx >= events.size()) {
      throw std::runtime_error("adversary chose an event out of range");
    }
    const auto kind = static_cast<std::size_t>(events[idx].kind);
    w.execute(events[idx]);
    l.exec_ns[kind] += now_ns() - t2;
    ++l.exec_n[kind];
  }
  return sim::RunStatus::kStepBudgetExhausted;
}

/// Runs `adv` on `w` in `mode`; `l` is non-null exactly when traced.
sim::RunStatus run_world(sim::World& w, sim::Adversary& adv, Layers* l) {
  return l != nullptr ? traced_run(w, adv, *l) : w.run(adv).status;
}

struct WeakenerWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> r;
  std::unique_ptr<objects::AbdRegister> c;
  std::unique_ptr<programs::WeakenerOutcome> out;
};

/// Algorithm 1 over ABD^2 registers of replication width `width`: pids 0-2
/// run the weakener, pids 3..width-1 host replicas only (the n_sweep and
/// scaling_probe world shape).
WeakenerWorld build_weakener(std::uint64_t coin_seed, int width,
                             bool profile) {
  WeakenerWorld ww;
  ww.world = std::make_unique<sim::World>(
      sim::Config{.trace_detail = sim::TraceDetail::kNone, .profile = profile},
      std::make_unique<sim::SeededCoin>(coin_seed));
  ww.r = std::make_unique<objects::AbdRegister>(
      "R", *ww.world,
      objects::AbdRegister::Options{.num_processes = width,
                                    .preamble_iterations = kPreambleK});
  ww.c = std::make_unique<objects::AbdRegister>(
      "C", *ww.world,
      objects::AbdRegister::Options{.num_processes = width,
                                    .initial = sim::Value(std::int64_t{-1}),
                                    .preamble_iterations = kPreambleK});
  ww.out = std::make_unique<programs::WeakenerOutcome>();
  programs::install_weakener(*ww.world, *ww.r, *ww.c, *ww.out);
  for (Pid pid = 3; pid < width; ++pid) {
    ww.world->add_process("s" + std::to_string(pid),
                          [](sim::Proc) -> sim::Task<void> { co_return; });
  }
  return ww;
}

constexpr int kChaosReplicas = 5;
constexpr int kChaosPairs = 3;        // write/read pairs per process
constexpr int kMaxRetransmits = 12;   // > any per-channel loss budget

struct ChaosWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<objects::AbdRegister> reg;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// One ABD^2 register over 5 replicas with the plan's faults interposed;
/// every process writes a distinct value and reads, kChaosPairs times.
ChaosWorld build_chaos(std::uint64_t coin_seed, const fault::FaultPlan& plan,
                       bool profile) {
  ChaosWorld cw;
  cw.world = std::make_unique<sim::World>(
      sim::Config{.max_crashes = static_cast<int>(plan.crashes.size()),
                  .trace_detail = sim::TraceDetail::kNone,
                  .profile = profile},
      std::make_unique<sim::SeededCoin>(coin_seed));
  cw.reg = std::make_unique<objects::AbdRegister>(
      "R", *cw.world,
      objects::AbdRegister::Options{.num_processes = plan.num_processes,
                                    .preamble_iterations = kPreambleK,
                                    .max_retransmits = kMaxRetransmits});
  cw.injector = std::make_unique<fault::FaultInjector>(plan, *cw.world);
  cw.reg->set_fault_layer(cw.injector.get());
  objects::AbdRegister& reg = *cw.reg;
  for (Pid pid = 0; pid < plan.num_processes; ++pid) {
    cw.world->add_process(
        "p" + std::to_string(pid), [&reg, pid](sim::Proc p) -> sim::Task<void> {
          for (int i = 0; i < kChaosPairs; ++i) {
            co_await reg.write(
                p, sim::Value(std::int64_t{pid * kChaosPairs + i + 1}));
            (void)co_await reg.read(p);
          }
        });
  }
  return cw;
}

/// Exact counts of the traced step loop, folded into the pass counters.
void add_step_kinds(exp::Accumulator& acc, const Layers& before,
                    const Layers& after) {
  const auto n = [&](sim::Event::Kind k) {
    const auto i = static_cast<std::size_t>(k);
    return after.exec_n[i] - before.exec_n[i];
  };
  acc.counter("resumes") += n(sim::Event::Kind::kResume);
  acc.counter("deliveries") += n(sim::Event::Kind::kDeliver);
  acc.counter("fault_events") +=
      n(sim::Event::Kind::kCrash) + n(sim::Event::Kind::kTick);
}

/// One weakener trial; returns false if it failed a check.
bool weakener_trial(const SimSpec& s, const TrialSpec& t, bool profile,
                    Layers* l, exp::Accumulator& acc) {
  const std::int64_t t0 = now_ns();
  WeakenerWorld ww = build_weakener(t.coin_seed, s.width, profile);
  if (l != nullptr) l->build_ns += now_ns() - t0;
  sim::UniformAdversary adv(t.sched_seed);
  const sim::RunStatus st = run_world(*ww.world, adv, l);
  acc.counter("steps") += ww.world->steps_executed();
  acc.counter("bad") += ww.out->looped() ? 1 : 0;
  acc.counter("messages_sent") += ww.r->messages_sent() + ww.c->messages_sent();
  const bool ok = st == sim::RunStatus::kCompleted;
  acc.counter("completed") += ok ? 1 : 0;
  return ok;
}

/// One chaos trial: plan, faulted run, Wing–Gong check.
bool chaos_trial(const TrialSpec& t, bool profile, Layers* l,
                 exp::Accumulator& acc) {
  std::int64_t t0 = now_ns();
  fault::PlanOptions opts;
  opts.num_processes = kChaosReplicas;
  const fault::FaultPlan plan = fault::random_plan(t.plan_seed, opts);
  const bool valid = plan.validate().empty();
  if (l != nullptr) {
    const std::int64_t t1 = now_ns();
    l->plan_ns += t1 - t0;
    t0 = t1;
  }
  ChaosWorld cw = build_chaos(t.coin_seed, plan, profile);
  if (l != nullptr) l->build_ns += now_ns() - t0;
  sim::UniformAdversary uniform(t.sched_seed);
  fault::ChaosAdversary adv(uniform, cw.injector->plan(), cw.injector.get());
  const sim::RunStatus st = run_world(*cw.world, adv, l);

  t0 = now_ns();
  const lin::History h = lin::History::from_world(*cw.world);
  static const lin::RegisterSpec spec;  // R starts at ⊥
  const bool linearizable = lin::check_linearizable(h, spec).linearizable;
  if (l != nullptr) l->lin_ns += now_ns() - t0;

  const bool completed = st == sim::RunStatus::kCompleted;
  acc.counter("steps") += cw.world->steps_executed();
  acc.counter("completed") += completed ? 1 : 0;
  acc.counter("plans_valid") += valid ? 1 : 0;
  acc.counter("linearizable") += linearizable ? 1 : 0;
  acc.counter("lin_ops") += h.size();
  acc.counter("messages_sent") += cw.reg->messages_sent();
  acc.counter("losses") += cw.injector->losses_injected();
  acc.counter("duplicates") += cw.injector->duplicates_injected();
  acc.counter("partitions") += cw.injector->partitions_opened();
  acc.counter("crashes") += cw.injector->crashes_injected();
  acc.counter("retransmissions") += cw.reg->retransmissions();
  return completed && valid && linearizable;
}

struct BatchOut {
  Counters counters;
  std::int64_t wall_ns = 0;  // the run_trials call
  std::int64_t body_ns = 0;  // sum of trial bodies inside it
};

/// Runs stream trials [first, first + count) through exp::run_trials at one
/// thread. Trial i's wall time lands in samples[i - first] when `samples`
/// is non-null.
BatchOut run_batch(const SimSpec& s, std::uint64_t seed, std::int64_t first,
                   int count, Mode mode, Layers* layers, float* samples,
                   std::string& first_failure) {
  BatchOut out;
  exp::Experiment e;
  e.name = "perfbench_" + s.name;
  e.default_trials = count;
  e.trial = [&](const exp::TrialContext& ctx, exp::Accumulator& acc) {
    const std::int64_t index = first + ctx.trial_index;
    const TrialSpec t = trial_spec(seed, index);
    Layers* l = mode == Mode::kTraced ? layers : nullptr;
    const Layers before = l != nullptr ? *l : Layers{};
    const std::int64_t t0 = now_ns();
    const bool ok = s.chaos ? chaos_trial(t, ctx.profile, l, acc)
                            : weakener_trial(s, t, ctx.profile, l, acc);
    const std::int64_t dt = now_ns() - t0;
    out.body_ns += dt;
    if (samples != nullptr) samples[ctx.trial_index] = static_cast<float>(dt);
    if (l != nullptr) {
      ++l->trials;
      add_step_kinds(acc, before, *l);
    }
    acc.counter("trials") += 1;
    if (!ok) {
      acc.counter("failed_trials") += 1;
      if (first_failure.empty()) {
        first_failure = s.name + " trial " + std::to_string(index) +
                        " failed its checks";
      }
    }
  };
  exp::RunOptions opts;
  opts.threads = 1;
  opts.trials = count;
  opts.profile = mode == Mode::kProfiled;
  const std::int64_t t0 = now_ns();
  const exp::RunOutput run = exp::run_trials(e, opts);
  out.wall_ns = now_ns() - t0;
  out.counters = run.merged.counters();
  return out;
}

/// A closed loop over the seed's trial stream, one batch after another,
/// for at least `seconds` and at least the pinned prefix.
struct Phase {
  std::vector<double> batch_s;
  std::vector<Counters> batches;  // exact totals, batch by batch
  std::int64_t trials = 0;
  std::int64_t wall_ns = 0;
  std::int64_t body_ns = 0;

  /// Batches are equal-sized, so the median batch time gives the rate; a
  /// burst of interference from outside the process moves few batches.
  [[nodiscard]] double trials_per_s(const SimSpec& s) const {
    return s.batch_trials / median(batch_s);
  }
  /// Totals of the pinned prefix (the first pinned_trials of the stream).
  [[nodiscard]] Counters prefix(const SimSpec& s) const {
    Counters sum;
    for (int b = 0; b < s.pinned_trials / s.batch_trials; ++b) {
      for (const auto& [k, v] : batches[static_cast<std::size_t>(b)]) {
        sum[k] += v;
      }
    }
    return sum;
  }
};

Phase run_phase(const SimSpec& s, std::uint64_t seed, Mode mode,
                double seconds, Layers* layers, std::vector<float>* samples,
                Outcome& o) {
  Phase ph;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * kNsPerS);
  const auto capacity = static_cast<std::int64_t>(s.max_trials);
  std::string failure;
  while (ph.trials + s.batch_trials <= capacity &&
         (ph.trials < s.pinned_trials || now_ns() < deadline)) {
    float* dst = samples != nullptr ? samples->data() + ph.trials : nullptr;
    BatchOut b = run_batch(s, seed, ph.trials, s.batch_trials, mode, layers,
                           dst, failure);
    ph.batch_s.push_back(static_cast<double>(b.wall_ns) / kNsPerS);
    ph.trials += s.batch_trials;
    ph.wall_ns += b.wall_ns;
    ph.body_ns += b.body_ns;
    o.failed += get(b.counters, "failed_trials");
    ph.batches.push_back(std::move(b.counters));
  }
  o.attempted += ph.trials;
  if (!failure.empty()) o.notes.push_back("CHECK FAILED: " + failure);
  return ph;
}

std::string describe(const Counters& c) {
  std::ostringstream os;
  for (const auto& [k, v] : c) os << ' ' << k << '=' << v;
  return os.str();
}

/// Pinned totals of the default seed (keys present in `got` only).
void check_pinned(const SimSpec& s, const RunArgs& a, const Counters& got,
                  Outcome& o) {
  if (a.seed != kDefaultSeed) return;
  bool ok = true;
  for (const auto& [k, v] : s.pinned) {
    const auto it = got.find(k);
    if (it != got.end() && it->second != v) ok = false;
  }
  o.check(ok, s.name + ": default-seed totals match the pinned values; got" +
                  describe(got));
}

/// `sub`'s keys all appear in `full` with equal values.
bool agrees_on(const Counters& sub, const Counters& full) {
  return std::all_of(sub.begin(), sub.end(), [&](const auto& kv) {
    const auto it = full.find(kv.first);
    return it != full.end() && it->second == kv.second;
  });
}

/// `b`'s batches repeat `a`'s exactly, on every batch both ran and on
/// every counter `a` keeps.
bool batches_agree(const Phase& a, const Phase& b) {
  const std::size_t n = std::min(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!agrees_on(a.batches[i], b.batches[i])) return false;
  }
  return n > 0;
}

/// Set-up: a warm-up batch over the first trials of the stream, `reps`
/// times. Returns the median set-up time.
double sim_setup(const SimSpec& s, const RunArgs& a, int reps, Outcome& o) {
  std::vector<double> times;
  std::string failure;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const BatchOut warm = run_batch(s, a.seed, 0, s.warmup_trials,
                                    Mode::kPlain, nullptr, nullptr, failure);
    times.push_back(static_cast<double>(now_ns() - t0) / kNsPerS);
    o.check(get(warm.counters, "failed_trials") == 0,
            s.name + ": warm-up trials pass their checks");
  }
  if (!failure.empty()) o.notes.push_back("CHECK FAILED: " + failure);
  return median(times);
}

double per(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void run_sim_untraced(const SimSpec& s, const RunArgs& a, Outcome& o) {
  const double setup_s = sim_setup(s, a, s.setups, o);
  // Fixed-size and written up front (non-zero, so no page stays a shared
  // zero page): the buffer's resident memory must not depend on how many
  // trials fit in the time.
  std::vector<float> samples(static_cast<std::size_t>(s.max_trials), -1.0f);
  const Phase ph = run_phase(s, a.seed, Mode::kPlain, a.seconds, nullptr,
                             &samples, o);
  const Counters prefix = ph.prefix(s);
  check_pinned(s, a, prefix, o);

  const std::span<float> all(samples.data(),
                             static_cast<std::size_t>(ph.trials));
  const std::optional<double> p50 = percentile(all, 50);
  const std::optional<double> tail = percentile(all, s.tail_percentile);
  o.check(p50.has_value() && tail.has_value(),
          s.name + ": at least 10 trials beyond p" +
              std::to_string(s.tail_percentile) + " (" +
              std::to_string(all.size()) + " trials)");
  o.add("setup_s", setup_s, "s");
  o.add("trials_per_s", ph.trials_per_s(s), "1/s");
  o.add("trial_ms_p50", p50.value_or(0.0) / kNsPerMs, "ms");
  o.add("trial_ms_p99", tail.value_or(0.0) / kNsPerMs, "ms");
  o.add("solve_s", median(ph.batch_s), "s");
  o.add("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  const auto [lo, hi] =
      std::minmax_element(ph.batch_s.begin(), ph.batch_s.end());
  o.notes.push_back(
      s.name + ": " + std::to_string(ph.trials) + " trials in " +
      std::to_string(ph.batch_s.size()) + " batches of " +
      std::to_string(s.batch_trials) + " (batch seconds min " +
      std::to_string(*lo) + ", median " + std::to_string(median(ph.batch_s)) +
      ", max " + std::to_string(*hi) + "); trial_ms_p99 is p" +
      std::to_string(s.tail_percentile) + "; setup_s is the median of " +
      std::to_string(s.setups) + "; first " + std::to_string(s.pinned_trials) +
      " trials:" + describe(prefix));
}

void run_sim_traced(const SimSpec& s, const RunArgs& a, Outcome& o) {
  (void)sim_setup(s, a, 1, o);
  const double third = a.seconds / 3.0;
  const Phase plain =
      run_phase(s, a.seed, Mode::kPlain, third, nullptr, nullptr, o);
  Layers l;
  const Phase traced =
      run_phase(s, a.seed, Mode::kTraced, third, &l, nullptr, o);
  const Phase profiled =
      run_phase(s, a.seed, Mode::kProfiled, third, nullptr, nullptr, o);

  const Counters c = traced.prefix(s);
  check_pinned(s, a, plain.prefix(s), o);
  check_pinned(s, a, c, o);
  o.check(batches_agree(plain, traced),
          s.name + ": the external step loop reproduces World::run's totals");
  o.check(batches_agree(plain, profiled) && batches_agree(profiled, plain),
          s.name + ": profiling leaves every total unchanged");
  o.check(get(c, "steps") == get(c, "resumes") + get(c, "deliveries") +
                                 get(c, "fault_events"),
          s.name + ": every traced step is a resume, delivery or fault event");

  const auto kind_ns = [&](std::initializer_list<sim::Event::Kind> kinds) {
    std::int64_t ns = 0;
    std::int64_t n = 0;
    for (const sim::Event::Kind k : kinds) {
      ns += l.exec_ns[static_cast<std::size_t>(k)];
      n += l.exec_n[static_cast<std::size_t>(k)];
    }
    return per(ns, n);
  };
  // Counts over the pinned prefix, so they are exact for a given seed;
  // times over every traced trial.
  const std::int64_t trials = s.pinned_trials;
  const auto count = [&](const char* k) { return per(get(c, k), trials); };
  const std::int64_t histories = s.chaos ? l.trials : 0;
  const double plain_tps = plain.trials_per_s(s);

  o.add("exp.overhead_share", 1.0 - per(plain.body_ns, plain.wall_ns),
        "ratio");
  o.add("sim.build_us_per_trial", per(l.build_ns, l.trials) / 1e3, "us");
  o.add("sim.enabled_ns_per_step", per(l.enabled_ns, l.enabled_calls), "ns");
  o.add("sim.enabled_len_per_step", per(l.enabled_len, l.enabled_calls),
        "count");
  o.add("sim.execute_resume_ns", kind_ns({sim::Event::Kind::kResume}), "ns");
  o.add("sim.execute_deliver_ns", kind_ns({sim::Event::Kind::kDeliver}), "ns");
  o.add("sim.execute_fault_ns",
        kind_ns({sim::Event::Kind::kCrash, sim::Event::Kind::kTick}), "ns");
  o.add("sim.steps_per_trial", count("steps"), "count");
  o.add("sim.deliveries_per_trial", count("deliveries"), "count");
  o.add("sim.resumes_per_trial", count("resumes"), "count");
  o.add("sim.steps_per_s", plain_tps * count("steps"), "1/s");
  o.add("adversary.choose_ns_per_step", per(l.choose_ns, l.enabled_calls),
        "ns");
  o.add("fault.plan_us_per_trial", per(l.plan_ns, histories) / 1e3, "us");
  o.add("fault.losses_per_trial", count("losses"), "count");
  o.add("fault.duplicates_per_trial", count("duplicates"), "count");
  o.add("fault.partitions_per_trial", count("partitions"), "count");
  o.add("fault.crashes_per_trial", count("crashes"), "count");
  o.add("fault.retransmissions_per_trial", count("retransmissions"), "count");
  o.add("lin.check_us_per_history", per(l.lin_ns, histories) / 1e3, "us");
  o.add("lin.ops_per_history", count("lin_ops"), "count");
  o.add("lin.linearizable_share", count("linearizable"), "ratio");
  o.add("obs.trace_overhead", plain_tps / traced.trials_per_s(s), "ratio");
  o.add("obs.profile_slowdown", plain_tps / profiled.trials_per_s(s), "ratio");
  o.notes.push_back(s.name + ": plain " + std::to_string(plain.trials) +
                    " trials, traced " + std::to_string(traced.trials) +
                    ", profiled " + std::to_string(profiled.trials) +
                    "; traced first " + std::to_string(s.pinned_trials) +
                    " trials:" + describe(c));
}

// -- Exact game solve ---------------------------------------------------------

constexpr std::size_t kAbd2States = 598306;  // distinct states of ABD^2

struct Solve {
  Rational value;
  game::SolveStats stats;
  double seconds = 0.0;
};

Solve timed_solve(const game::GameModel& model) {
  Solve s;
  const std::int64_t t0 = now_ns();
  s.value = game::solve(model, &s.stats);
  s.seconds = static_cast<double>(now_ns() - t0) / kNsPerS;
  return s;
}

void check_abd2(const Solve& s, Outcome& o) {
  o.check(s.value == Rational(5, 8), "ABD^2 game value is exactly 5/8, got " +
                                         s.value.to_string());
  o.check(s.stats.states_visited == kAbd2States &&
              s.stats.expansions == kAbd2States,
          "ABD^2 solve visits the pinned " + std::to_string(kAbd2States) +
              " states, got " + std::to_string(s.stats.states_visited) +
              " states / " + std::to_string(s.stats.expansions) +
              " expansions");
}

/// Set-up: a warm-up solve of the smaller k=1 game, whose value is 1 (the
/// Figure 1 adversary wins outright).
double game_setup(int reps, Outcome& o) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Solve warm = timed_solve(game::AbdPhaseWeakenerGame(1));
    times.push_back(warm.seconds);
    o.check(warm.value == Rational(1), "ABD^1 warm-up game value is 1");
  }
  return median(times);
}

void run_game_untraced(const RunArgs& a, Outcome& o) {
  const double setup_s = game_setup(3, o);
  const game::AbdPhaseWeakenerGame model(kPreambleK);
  std::vector<double> solves;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * kNsPerS);
  while (solves.size() < 2 || now_ns() < deadline) {
    const Solve s = timed_solve(model);
    check_abd2(s, o);
    solves.push_back(s.seconds);
  }
  const double solve_s = median(solves);
  o.add("setup_s", setup_s, "s");
  o.add("trials_per_s", 1.0 / solve_s, "1/s");
  o.add("trial_ms_p50", solve_s * 1e3, "ms");
  o.add("trial_ms_p99", *std::max_element(solves.begin(), solves.end()) * 1e3,
        "ms");
  o.add("solve_s", solve_s, "s");
  o.add("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  o.notes.push_back("exact_solve: " + std::to_string(solves.size()) +
                    " solves; a trial is one solve, so trial_ms_p50 is the "
                    "median solve and trial_ms_p99 the slowest");
}

void run_game_traced(const RunArgs& a, Outcome& o) {
  // Resident memory before any solve: the warm-up's freed heap stays
  // resident and the first k=2 solve reuses it.
  const std::int64_t rss_before = current_rss_bytes();
  (void)game_setup(1, o);
  const game::AbdPhaseWeakenerGame model(kPreambleK);
  const Solve plain = timed_solve(model);
  const std::int64_t rss_peak = peak_rss_bytes();
  check_abd2(plain, o);

  // Traced solves for the other half of the time (at least one).
  const TimedGame timed(model);
  std::vector<double> traced_s;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds / 2 * kNsPerS);
  while (traced_s.empty() || now_ns() < deadline) {
    const Solve s = timed_solve(timed);
    check_abd2(s, o);
    o.check(s.value == plain.value &&
                s.stats.states_visited == plain.stats.states_visited &&
                s.stats.expansions == plain.stats.expansions &&
                s.stats.max_depth == plain.stats.max_depth,
            "the expand() wrapper reproduces the solve's value and counts");
    traced_s.push_back(s.seconds);
  }
  const auto solves = static_cast<std::int64_t>(traced_s.size());
  const auto states = static_cast<std::int64_t>(plain.stats.states_visited);
  o.check(timed.calls() ==
              solves * static_cast<std::int64_t>(plain.stats.expansions),
          "the wrapper saw every expansion");
  const double solve_ns =
      std::accumulate(traced_s.begin(), traced_s.end(), 0.0) * kNsPerS /
      static_cast<double>(solves);
  const double expand_ns = per(timed.expand_ns(), solves);  // per solve

  o.add("game.states_per_s", static_cast<double>(states) / plain.seconds,
        "1/s");
  o.add("game.expand_share", expand_ns / solve_ns, "ratio");
  o.add("game.expand_ns_per_call", per(timed.expand_ns(), timed.calls()),
        "ns");
  o.add("game.memo_ns_per_state",
        (solve_ns - expand_ns) / static_cast<double>(states), "ns");
  o.add("game.key_bytes", per(timed.key_bytes(), timed.calls()), "B");
  o.add("game.rss_bytes_per_state",
        per(rss_peak - rss_before, states), "B");
  o.add("game.states_visited", static_cast<double>(states), "count");
  o.add("game.expansions", static_cast<double>(plain.stats.expansions),
        "count");
  o.add("obs.trace_overhead", median(traced_s) / plain.seconds, "ratio");
  o.notes.push_back("exact_solve: 1 plain solve, " + std::to_string(solves) +
                    " traced");
}

// -- Registry -----------------------------------------------------------------

std::vector<SimSpec> sim_specs() {
  SimSpec mc;
  mc.name = "mc_n3";
  mc.width = 3;
  mc.batch_trials = 5000;
  mc.pinned_trials = 20000;
  mc.warmup_trials = 4000;
  mc.setups = 5;
  mc.max_trials = 1 << 20;
  mc.pinned = {{"trials", 20000},      {"completed", 20000},
               {"failed_trials", 0},   {"bad", 453},
               {"steps", 3063041},     {"messages_sent", 2155945},
               {"resumes", 920000},    {"deliveries", 2143041},
               {"fault_events", 0}};

  SimSpec wide;
  wide.name = "wide_n";
  wide.width = 1024;
  wide.batch_trials = 2;
  wide.pinned_trials = 8;
  wide.warmup_trials = 1;
  wide.setups = 5;
  wide.max_trials = 4096;
  // About 80 trials in a 15 s run: p75 is the highest percentile with ten
  // samples beyond it to spare.
  wide.tail_percentile = 75;
  wide.pinned = {{"trials", 8},       {"completed", 8},
                 {"failed_trials", 0}, {"bad", 1},
                 {"steps", 299818},   {"messages_sent", 294048},
                 {"resumes", 8536},   {"deliveries", 291282},
                 {"fault_events", 0}};

  SimSpec chaos;
  chaos.name = "chaos_lin";
  chaos.chaos = true;
  chaos.batch_trials = 100;
  chaos.pinned_trials = 300;
  chaos.warmup_trials = 50;
  chaos.setups = 5;
  chaos.max_trials = 1 << 16;
  chaos.pinned = {{"trials", 300},          {"completed", 300},
                  {"failed_trials", 0},     {"plans_valid", 300},
                  {"linearizable", 300},    {"lin_ops", 8516},
                  {"steps", 761225},        {"messages_sent", 656599},
                  {"losses", 22561},        {"duplicates", 29215},
                  {"partitions", 227},      {"crashes", 175},
                  {"retransmissions", 42176}, {"resumes", 60419},
                  {"deliveries", 681605},   {"fault_events", 19201}};
  return {mc, wide, chaos};
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"trials_per_s", "1/s"}, {"trial_ms_p50", "ms"},
    {"trial_ms_p99", "ms"},  {"solve_s", "s"},        {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"exp.overhead_share", "ratio"},
    {"sim.build_us_per_trial", "us"},
    {"sim.enabled_ns_per_step", "ns"},
    {"sim.enabled_len_per_step", "count"},
    {"sim.execute_resume_ns", "ns"},
    {"sim.execute_deliver_ns", "ns"},
    {"sim.execute_fault_ns", "ns"},
    {"sim.steps_per_trial", "count"},
    {"sim.deliveries_per_trial", "count"},
    {"sim.resumes_per_trial", "count"},
    {"sim.steps_per_s", "1/s"},
    {"adversary.choose_ns_per_step", "ns"},
    {"fault.plan_us_per_trial", "us"},
    {"fault.losses_per_trial", "count"},
    {"fault.duplicates_per_trial", "count"},
    {"fault.partitions_per_trial", "count"},
    {"fault.crashes_per_trial", "count"},
    {"fault.retransmissions_per_trial", "count"},
    {"lin.check_us_per_history", "us"},
    {"lin.ops_per_history", "count"},
    {"lin.linearizable_share", "ratio"},
    {"game.states_per_s", "1/s"},
    {"game.expand_share", "ratio"},
    {"game.expand_ns_per_call", "ns"},
    {"game.memo_ns_per_state", "ns"},
    {"game.key_bytes", "B"},
    {"game.rss_bytes_per_state", "B"},
    {"game.states_visited", "count"},
    {"game.expansions", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.profile_slowdown", "ratio"},
};

/// Puts the metrics in the canonical order of `defs`. A layer the workload
/// does not exercise reads 0 (no game states on a simulator workload, no
/// faults on mc_n3). A name outside `defs` is a bug in this file.
template <std::size_t N>
void canonicalize(Outcome& o, const MetricDef (&defs)[N]) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    Metric m{d.name, 0.0, d.unit};
    for (const Metric& got : o.metrics) {
      if (got.name == d.name) m = got;
    }
    out.push_back(std::move(m));
  }
  for (const Metric& got : o.metrics) {
    if (std::none_of(out.begin(), out.end(),
                     [&](const Metric& m) { return m.name == got.name; })) {
      throw std::logic_error("metric " + got.name + " is not declared");
    }
  }
  o.metrics = std::move(out);
}

void run(const std::string& name, const RunArgs& args, Outcome& o) {
  if (name == "exact_solve") {
    if (args.trace) {
      run_game_traced(args, o);
    } else {
      run_game_untraced(args, o);
    }
    return;
  }
  for (const SimSpec& s : sim_specs()) {
    if (s.name != name) continue;
    if (args.trace) {
      run_sim_traced(s, args, o);
    } else {
      run_sim_untraced(s, args, o);
    }
    return;
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mc_n3", "wide_n",
                                                 "chaos_lin", "exact_solve"};
  return names;
}

Outcome run_workload(const std::string& name, const RunArgs& args) {
  Outcome o;
  run(name, args, o);
  if (args.trace) {
    canonicalize(o, kPerLayer);
  } else {
    canonicalize(o, kEndToEnd);
  }
  return o;
}

}  // namespace perfbench
