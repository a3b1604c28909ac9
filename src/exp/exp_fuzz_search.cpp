// fuzz_search: coverage-guided greybox adversary fuzzing vs uniform Monte
// Carlo, on two planted targets with known ground truth.
//
// Trial layout (fixed boundaries; --trials N runs the first N slots, so the
// CI smoke `--trials 3` runs abd fuzz chains only):
//
//   [ 0, 10)  abd_bug fuzz chains   (fuzz::run_abd_bug_chain, 1 chain/trial)
//   [10, 20)  abd_bug uniform MC    (12000 runs/trial)
//   [20, 40)  figure1 fuzz chains   (fuzz::run_figure1_chain, 1 chain/trial)
//   [40, 60)  figure1 uniform MC    (30000 runs/trial)
//
// Discovery-cost gates (finalize, exit code):
//   * abd_bug — measured execs-per-violation ratio MC/fuzz must be >= 10
//     (MC arm with zero violations contributes its exec count as a lower
//     bound on MC cost).
//   * figure1 — the fuzzer must rediscover the Figure-1 PAIR (both coin
//     branches looping from one recorded prefix). Uniform MC pairs only if
//     two runs loop on both coin values from the identical schedule prefix;
//     the per-coin prefix-hash CoverageMaps make that a mergeable
//     set-intersection oracle. MC has never paired, so its exec count is the
//     cost lower bound, and bound/fuzz-cost must be >= 10.
//   Each gate arms only when both of its arms actually ran, so budgeted
//   smoke runs degrade gracefully.
//
// Corpus persistence: every chain's coverage-novel schedules and shrunk
// violations are appended to a crash-tolerant JSONL journal (flock +
// O_APPEND, duplicate-safe); finalize compacts the journal into a canonical
// artifact whose bytes depend only on the record set — identical for any
// --threads and across kill/resume. Knobs: $BLUNT_FUZZ_CORPUS_PATH (journal
// path; default $BLUNT_BENCH_DIR/FUZZ_CORPUS.jsonl), $BLUNT_FUZZ_CORPUS=0
// (disable persistence).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/workloads.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"

namespace blunt::exp {
namespace {

constexpr std::int64_t kAbdChains = 10;
constexpr std::int64_t kAbdMcSlots = 10;
constexpr long kAbdMcBatch = 12000;
constexpr std::int64_t kFig1Chains = 20;
constexpr std::int64_t kFig1McSlots = 20;
constexpr long kFig1McBatch = 30000;
constexpr std::int64_t kLayoutTrials =
    kAbdChains + kAbdMcSlots + kFig1Chains + kFig1McSlots;  // 60

/// Cap on each figure1 chain's Phase-A uniform-seed scan; also the spacing
/// factor that keeps different --seed runs in disjoint seed blocks.
constexpr std::uint64_t kFig1SeedWindow = 10000;

bool corpus_enabled() {
  const char* e = std::getenv("BLUNT_FUZZ_CORPUS");
  return e == nullptr || std::string(e) != "0";
}

std::string corpus_path() {
  if (const char* p = std::getenv("BLUNT_FUZZ_CORPUS_PATH");
      p != nullptr && *p != '\0') {
    return p;
  }
  const char* dir = std::getenv("BLUNT_BENCH_DIR");
  const std::string d = (dir != nullptr && *dir != '\0') ? dir : ".";
  return d + "/FUZZ_CORPUS.jsonl";
}

std::int64_t resolve_fuzz_trials(std::int64_t requested) {
  if (requested <= 0) requested = kLayoutTrials;
  return std::min<std::int64_t>(requested, kLayoutTrials);
}

/// Journals a chain's artifacts and folds its counters/coverage into the
/// shard accumulator. Shared by both chain arms.
void fold_chain_artifacts(Accumulator& acc, const std::string& path,
                          const std::vector<fuzz::CorpusEntry>& corpus,
                          const std::vector<fuzz::ViolationRecord>& violations,
                          bool persist) {
  for (const fuzz::ViolationRecord& v : violations) {
    ++acc.counter("fuzz.violations_found");
    if (v.shrunk.size() < v.schedule.size()) {
      ++acc.counter("fuzz.violations_shrunk");
    }
    acc.counter("fuzz.shrunk_events") +=
        static_cast<std::int64_t>(v.shrunk.size());
  }
  if (!persist) return;
  for (const fuzz::CorpusEntry& e : corpus) {
    fuzz::append_entry(path, e);
    ++acc.counter("fuzz.corpus_appended");
  }
  for (const fuzz::ViolationRecord& v : violations) {
    fuzz::append_violation(path, v);
  }
}

void fold_novelty(Accumulator& acc, const TrialContext& ctx,
                  const obs::CoverageMap& schedules,
                  const obs::CoverageMap& ngrams,
                  const obs::CoverageMap& objects) {
  // The chains consume novelty internally as their corpus-admission oracle;
  // the accumulator's standard coverage maps stay opt-in (coverage-off
  // reports remain byte-stable, per the engine convention).
  if (!ctx.coverage) return;
  acc.coverage(kCoverageSchedules).merge(schedules);
  acc.coverage(kCoverageNgrams).merge(ngrams);
  acc.coverage(kCoverageObjects).merge(objects);
}

void fuzz_trial(const TrialContext& ctx, Accumulator& acc) {
  const std::string path = corpus_path();
  const bool persist = corpus_enabled();
  const std::int64_t idx = ctx.trial_index;
  if (idx < kAbdChains) {
    fuzz::AbdChainOptions o;
    o.chain_seed = ctx.seed;
    const fuzz::AbdChainResult r = fuzz::run_abd_bug_chain(o);
    ++acc.counter("fuzz.abd.chains");
    acc.counter("fuzz.abd.execs") += r.execs;
    acc.counter("fuzz.replay_repair") += r.replay_repairs;
    if (r.won) {
      ++acc.counter("fuzz.abd.wins");
      acc.stat("fuzz.abd.execs_to_find").add(static_cast<double>(r.execs_to_find));
    }
    fold_chain_artifacts(acc, path, r.corpus, r.violations, persist);
    fold_novelty(acc, ctx, r.schedules, r.ngrams, r.objects);
    return;
  }
  if (idx < kAbdChains + kAbdMcSlots) {
    const fuzz::AbdMcResult r =
        fuzz::run_abd_bug_mc(ctx.seed * static_cast<std::uint64_t>(kAbdMcBatch),
                             kAbdMcBatch);
    acc.counter("mc.abd.execs") += r.execs;
    acc.counter("mc.abd.violations") += r.violations;
    fold_novelty(acc, ctx, r.schedules, r.ngrams, r.objects);
    return;
  }
  if (idx < kAbdChains + kAbdMcSlots + kFig1Chains) {
    fuzz::Figure1ChainOptions o;
    // Phase A's scan nearly always adopts seed_start itself (almost every
    // uniform seed reaches the program coin), so consecutive slots fuzz
    // consecutive uniform seeds — exactly the configuration the chain's
    // pairing economics were measured on, over seeds [0, 20). kLinear makes
    // (ctx.seed - experiment_seed) == trial_index, so the default run
    // reproduces that measured block bit-for-bit and other --seed values
    // shift to disjoint blocks.
    const std::uint64_t slot =
        static_cast<std::uint64_t>(idx - kAbdChains - kAbdMcSlots);
    o.seed_start = (ctx.experiment_seed - 7) *
                       (kFig1SeedWindow * static_cast<std::uint64_t>(
                                              kFig1Chains)) +
                   slot;
    o.seed_attempts = kFig1SeedWindow;
    const fuzz::Figure1ChainResult r = fuzz::run_figure1_chain(o);
    ++acc.counter("fuzz.fig1.chains");
    acc.counter("fuzz.fig1.execs") += r.execs;
    acc.counter("fuzz.replay_repair") += r.replay_repairs;
    if (r.qualified) ++acc.counter("fuzz.fig1.qualified");
    if (r.branch0) ++acc.counter("fuzz.fig1.branch0");
    if (r.branch1) ++acc.counter("fuzz.fig1.branch1");
    if (r.paired) {
      ++acc.counter("fuzz.fig1.pairs");
      acc.stat("fuzz.fig1.execs_to_pair").add(static_cast<double>(r.execs));
    }
    fold_chain_artifacts(acc, path, r.corpus, r.violations, persist);
    fold_novelty(acc, ctx, r.schedules, r.ngrams, r.objects);
    return;
  }
  const fuzz::Figure1McResult r = fuzz::run_figure1_mc(
      ctx.seed * static_cast<std::uint64_t>(kFig1McBatch), kFig1McBatch);
  acc.counter("mc.fig1.execs") += r.execs;
  acc.counter("mc.fig1.loops") += r.loops;
  acc.counter("mc.fig1.loops0") += r.loops0;
  acc.counter("mc.fig1.loops1") += r.loops1;
  // The pair oracle is gate data, not opt-in coverage: always recorded.
  acc.coverage("fig1.mc.loop0").merge(r.loop0_prefixes);
  acc.coverage("fig1.mc.loop1").merge(r.loop1_prefixes);
  fold_novelty(acc, ctx, r.schedules, r.ngrams, r.objects);
}

/// Count of prefix hashes present in BOTH per-coin loop sets — uniform MC's
/// Figure-1 pair discoveries.
std::int64_t mc_pair_count(const Accumulator& acc) {
  const std::vector<std::uint64_t> a = acc.coverage("fig1.mc.loop0").sorted();
  const std::vector<std::uint64_t> b = acc.coverage("fig1.mc.loop1").sorted();
  std::vector<std::uint64_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return static_cast<std::int64_t>(both.size());
}

int fuzz_finalize(obs::BenchReport& report, const Accumulator& acc,
                  const RunInfo& info) {
  int exit_code = 0;

  // ---- Corpus compaction: journal -> canonical artifact.
  const std::string path = corpus_path();
  fuzz::Corpus corpus;
  std::string compacted_path;
  if (corpus_enabled()) {
    corpus = fuzz::load_corpus(path);
    compacted_path = path + ".compact";
    fuzz::write_compacted(corpus, compacted_path);
    fuzz::compact(corpus);
  }
  report.set_metric_int("fuzz.corpus_size",
                        static_cast<std::int64_t>(corpus.entries.size()));
  report.set_metric_int("fuzz.corpus_violations",
                        static_cast<std::int64_t>(corpus.violations.size()));
  report.set_metric_int("fuzz.corpus_skipped_lines", corpus.skipped_lines);
  report.set_metric_int("fuzz.violations_found",
                        acc.counter_or("fuzz.violations_found", 0));
  report.set_metric_int("fuzz.violations_shrunk",
                        acc.counter_or("fuzz.violations_shrunk", 0));
  report.set_metric_int("fuzz.replay_repair",
                        acc.counter_or("fuzz.replay_repair", 0));

  // First shrunk repro per target, from the canonical (deterministic) corpus.
  for (const char* target : {"abd_bug", "figure1"}) {
    for (const fuzz::ViolationRecord& v : corpus.violations) {
      if (v.target == target && !v.repro.empty()) {
        report.set_metric_string(std::string("fuzz.repro.") + target, v.repro);
        break;
      }
    }
  }

  // ---- abd_bug arm.
  const std::int64_t abd_chains = acc.counter_or("fuzz.abd.chains", 0);
  const std::int64_t abd_wins = acc.counter_or("fuzz.abd.wins", 0);
  const std::int64_t abd_execs = acc.counter_or("fuzz.abd.execs", 0);
  const std::int64_t abd_mc_execs = acc.counter_or("mc.abd.execs", 0);
  const std::int64_t abd_mc_viol = acc.counter_or("mc.abd.violations", 0);
  print_header("fuzz_search: abd_bug (planted kSubMajorityQuorum)");
  std::printf("  %-34s %10lld\n", "fuzz chains", (long long)abd_chains);
  std::printf("  %-34s %10lld\n", "fuzz wins (lin violations)",
              (long long)abd_wins);
  std::printf("  %-34s %10lld\n", "fuzz execs", (long long)abd_execs);
  std::printf("  %-34s %10lld\n", "MC execs", (long long)abd_mc_execs);
  std::printf("  %-34s %10lld\n", "MC violations", (long long)abd_mc_viol);
  set_bernoulli_metric(report, "fuzz_abd_win_rate", abd_wins, abd_chains);
  report.set_metric_int("fuzz.abd.execs", abd_execs);
  report.set_metric_int("mc.abd.execs", abd_mc_execs);
  report.set_metric_int("mc.abd.violations", abd_mc_viol);
  if (abd_chains > 0 && abd_wins > 0) {
    const double fuzz_cost =
        static_cast<double>(abd_execs) / static_cast<double>(abd_wins);
    // Zero MC violations: the whole MC budget is a lower bound on its cost.
    const double mc_cost =
        abd_mc_viol > 0 ? static_cast<double>(abd_mc_execs) /
                              static_cast<double>(abd_mc_viol)
                        : static_cast<double>(abd_mc_execs);
    report.set_metric("fuzz.abd.execs_per_find", fuzz_cost);
    if (abd_mc_execs > 0) {
      const double speedup = mc_cost / fuzz_cost;
      report.set_metric("fuzz.abd.speedup", speedup);
      std::printf("  %-34s %10.1f\n", "fuzz execs/violation", fuzz_cost);
      std::printf("  %-34s %10.1f%s\n", "MC execs/violation", mc_cost,
                  abd_mc_viol == 0 ? " (lower bound)" : "");
      std::printf("  %-34s %10.1fx\n", "discovery speedup", speedup);
      if (speedup < 10.0) {
        std::printf("  GATE FAILED: abd_bug speedup %.1fx < 10x\n", speedup);
        exit_code = 1;
      }
    } else {
      std::printf("  (MC arm not run; speedup gate skipped)\n");
    }
  } else if (abd_chains >= 3) {
    // Validated win rate is ~100%; several chains with zero wins means the
    // search regressed, even without the MC arm for a ratio.
    std::printf("  GATE FAILED: %lld abd chains found no violation\n",
                (long long)abd_chains);
    exit_code = 1;
  }

  // ---- figure1 arm.
  const std::int64_t f_chains = acc.counter_or("fuzz.fig1.chains", 0);
  const std::int64_t f_qual = acc.counter_or("fuzz.fig1.qualified", 0);
  const std::int64_t f_pairs = acc.counter_or("fuzz.fig1.pairs", 0);
  const std::int64_t f_execs = acc.counter_or("fuzz.fig1.execs", 0);
  const std::int64_t f_mc_execs = acc.counter_or("mc.fig1.execs", 0);
  const std::int64_t f_mc_loops = acc.counter_or("mc.fig1.loops", 0);
  const std::int64_t f_mc_pairs = f_mc_execs > 0 ? mc_pair_count(acc) : 0;
  if (f_chains > 0 || f_mc_execs > 0) {
    print_header("fuzz_search: figure1 (weakener pair rediscovery)");
    std::printf("  %-34s %10lld\n", "fuzz chains", (long long)f_chains);
    std::printf("  %-34s %10lld\n", "fuzz qualified (phase A)",
                (long long)f_qual);
    std::printf("  %-34s %10lld\n", "fuzz pairs (Figure 1)",
                (long long)f_pairs);
    std::printf("  %-34s %10lld\n", "fuzz execs", (long long)f_execs);
    std::printf("  %-34s %10lld\n", "MC execs", (long long)f_mc_execs);
    std::printf("  %-34s %10lld\n", "MC looping runs", (long long)f_mc_loops);
    std::printf("  %-34s %10lld\n", "MC pairs (prefix intersection)",
                (long long)f_mc_pairs);
    report.set_metric_int("fuzz.fig1.pairs", f_pairs);
    report.set_metric_int("fuzz.fig1.qualified", f_qual);
    report.set_metric_int("fuzz.fig1.execs", f_execs);
    report.set_metric_int("mc.fig1.execs", f_mc_execs);
    report.set_metric_int("mc.fig1.loops", f_mc_loops);
    report.set_metric_int("mc.fig1.pairs", f_mc_pairs);
    set_bernoulli_metric(report, "fuzz_fig1_pair_rate", f_pairs, f_chains);
    if (f_chains > 0 && f_mc_execs > 0) {
      if (f_pairs == 0) {
        std::printf("  GATE FAILED: no Figure-1 pair rediscovered\n");
        exit_code = 1;
      } else {
        const double fuzz_cost =
            static_cast<double>(f_execs) / static_cast<double>(f_pairs);
        const double mc_cost =
            f_mc_pairs > 0 ? static_cast<double>(f_mc_execs) /
                                 static_cast<double>(f_mc_pairs)
                           : static_cast<double>(f_mc_execs);
        const double speedup = mc_cost / fuzz_cost;
        report.set_metric("fuzz.fig1.execs_per_pair", fuzz_cost);
        report.set_metric("fuzz.fig1.speedup", speedup);
        std::printf("  %-34s %10.1f\n", "fuzz execs/pair", fuzz_cost);
        std::printf("  %-34s %10.1f%s\n", "MC execs/pair", mc_cost,
                    f_mc_pairs == 0 ? " (lower bound)" : "");
        std::printf("  %-34s %10.1fx\n", "discovery speedup", speedup);
        if (speedup < 10.0) {
          std::printf("  GATE FAILED: figure1 speedup %.1fx < 10x\n", speedup);
          exit_code = 1;
        }
      }
    } else {
      std::printf("  (one arm missing; speedup gate skipped)\n");
    }
  }

  // ---- Corpus summary.
  print_header("fuzz corpus");
  std::printf("  %-34s %10zu\n", "entries (compacted)", corpus.entries.size());
  std::printf("  %-34s %10zu\n", "violations (compacted)",
              corpus.violations.size());
  std::printf("  %-34s %10lld\n", "violations found (this run)",
              (long long)acc.counter_or("fuzz.violations_found", 0));
  std::printf("  %-34s %10lld\n", "violations shrunk",
              (long long)acc.counter_or("fuzz.violations_shrunk", 0));
  std::printf("  %-34s %10lld\n", "replay repairs",
              (long long)acc.counter_or("fuzz.replay_repair", 0));
  if (!compacted_path.empty()) {
    std::printf("  journal: %s\n  canonical: %s\n", path.c_str(),
                compacted_path.c_str());
  } else {
    std::printf("  (corpus persistence disabled: BLUNT_FUZZ_CORPUS=0)\n");
  }

  report_coverage(report, acc, info);
  return exit_code;
}

}  // namespace

Experiment make_fuzz_search_experiment() {
  Experiment e;
  e.name = "fuzz_search";
  e.description =
      "greybox schedule fuzzer vs uniform MC on planted targets "
      "(abd_bug quorum bug + figure1 pair), with corpus + shrunk repros";
  e.default_trials = kLayoutTrials;
  e.default_seed = 7;
  e.default_shard_size = 1;
  // Linear: trial seeds stay small consecutive integers, so chain seeds and
  // MC seed windows are disjoint by construction.
  e.seed_derivation = SeedDerivation::kLinear;
  e.resolve_trials = resolve_fuzz_trials;
  e.trial = fuzz_trial;
  e.finalize = fuzz_finalize;
  return e;
}

}  // namespace blunt::exp
