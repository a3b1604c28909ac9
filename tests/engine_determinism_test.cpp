// The experiment engine's determinism contract (src/exp): merged results are
// bit-identical for every --threads value, seeds derive purely from
// (experiment_seed, trial_index), checkpoint/resume reproduces the same
// bits — through a torn checkpoint tail and a SIGKILL mid-run too — and the
// builtin experiments' reports carry thread-count-independent metrics
// sections.
#include "exp/engine.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"

namespace blunt::exp {
namespace {

/// Synthetic experiment with deliberately awkward floating-point
/// contributions: fractional stats, per-trial histograms, uneven tallies.
/// If the engine's merge tree depended on the thread count anywhere, this
/// workload would expose it in the folded doubles.
Experiment make_synthetic(std::int64_t trials = 333) {
  Experiment e;
  e.name = "synthetic";
  e.description = "engine test workload";
  e.default_trials = trials;  // deliberately not a multiple of shard size
  e.default_seed = 7;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    const double x = static_cast<double>(ctx.seed % 1000) / 7.0;
    acc.tally("hit").add(ctx.seed % 3 == 0);
    acc.stat("x").add(x);
    acc.stat("x").add(-x / 3.0);
    acc.counter("n") += 1;
    obs::MetricsRegistry m;
    m.counter("c")->inc(static_cast<std::int64_t>(ctx.seed % 5));
    m.histogram("h")->observe(x);
    acc.registry().merge(m.snapshot());
  };
  return e;
}

RunOptions opts_with(int threads, int shard_size = 16) {
  RunOptions o;
  o.threads = threads;
  o.shard_size = shard_size;
  return o;
}

TEST(SeedDerivation, LinearIsSeedPlusIndex) {
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 100, 0), 100u);
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 100, 41), 141u);
  EXPECT_EQ(derive_seed(SeedDerivation::kLinear, 0, 7), 7u);
}

TEST(SeedDerivation, SplitMixMatchesReferenceAndSeparatesTrials) {
  const std::uint64_t s = 42;
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(derive_seed(SeedDerivation::kSplitMix64, s, i),
              splitmix64(splitmix64(s) ^ static_cast<std::uint64_t>(i)));
  }
  // Distinct seeds for distinct trials (collision here would silently
  // correlate trials).
  std::set<std::uint64_t> seen;
  for (std::int64_t i = 0; i < 4096; ++i) {
    seen.insert(derive_seed(SeedDerivation::kSplitMix64, s, i));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Engine, MergedResultBitIdenticalAcrossThreadCounts) {
  const Experiment e = make_synthetic();
  const std::string want = run_trials(e, opts_with(1)).merged.to_json().dump();
  for (const int threads : {2, 3, 8}) {
    const RunOutput out = run_trials(e, opts_with(threads));
    EXPECT_EQ(out.merged.to_json().dump(), want)
        << "merged result diverged at " << threads << " threads";
    EXPECT_EQ(out.info.threads, threads);
    EXPECT_TRUE(out.info.complete);
  }
}

TEST(Engine, TrialContextCarriesLayoutAndDerivedSeeds) {
  Experiment e;
  e.name = "ctx_probe";
  e.default_trials = 40;
  e.default_seed = 9;
  e.seed_derivation = SeedDerivation::kSplitMix64;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    EXPECT_EQ(ctx.trials, 40);
    EXPECT_EQ(ctx.experiment_seed, 9u);
    EXPECT_EQ(ctx.seed,
              derive_seed(SeedDerivation::kSplitMix64, 9, ctx.trial_index));
    acc.counter("seen") += 1;
  };
  const RunOutput out = run_trials(e, opts_with(4, /*shard_size=*/8));
  EXPECT_EQ(out.merged.counter_or("seen"), 40);
  EXPECT_EQ(out.info.shards_total, 5);
  EXPECT_EQ(out.info.shards_executed, 5);
}

TEST(Engine, IntegerComponentsInvariantUnderShardSize) {
  // Changing the shard size changes the merge tree (so double moments may
  // differ in the last ulp), but every integer component must agree exactly.
  const Experiment e = make_synthetic();
  const RunOutput a = run_trials(e, opts_with(2, /*shard_size=*/16));
  const RunOutput b = run_trials(e, opts_with(2, /*shard_size=*/64));
  EXPECT_EQ(a.merged.tally("hit").successes(),
            b.merged.tally("hit").successes());
  EXPECT_EQ(a.merged.tally("hit").trials(), b.merged.tally("hit").trials());
  EXPECT_EQ(a.merged.counter_or("n"), b.merged.counter_or("n"));
  EXPECT_EQ(a.merged.registry().counter_or("c", -1),
            b.merged.registry().counter_or("c", -1));
  EXPECT_EQ(a.merged.stat("x").count(), b.merged.stat("x").count());
  EXPECT_DOUBLE_EQ(a.merged.stat("x").sum(), b.merged.stat("x").sum());
}

TEST(Engine, SeedOverrideChangesSplitMixResults) {
  const Experiment e = make_synthetic();
  RunOptions a = opts_with(2);
  RunOptions b = opts_with(2);
  b.has_seed = true;
  b.seed = 12345;
  EXPECT_NE(run_trials(e, a).merged.to_json().dump(),
            run_trials(e, b).merged.to_json().dump());
}

TEST(Engine, TimingSweepRecordsWallClocksAndSelfChecks) {
  const Experiment e = make_synthetic(100);
  RunOptions o = opts_with(2);
  o.timing_sweep = {1, 4};
  const RunOutput out = run_trials(e, o);
  ASSERT_EQ(out.info.sweep_wall_ms.size(), 2u);
  EXPECT_EQ(out.info.sweep_wall_ms[0].first, 1);
  EXPECT_EQ(out.info.sweep_wall_ms[1].first, 4);
  // The sweep itself asserts bit-identity internally; reaching here means
  // the self-check passed.
}

class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_exp_ckpt_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempCheckpoint() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(EngineCheckpoint, ChunkedRunMatchesDirectRunBitForBit) {
  const Experiment e = make_synthetic();
  const std::string want = run_trials(e, opts_with(2)).merged.to_json().dump();

  TempCheckpoint cp("chunked");
  RunOptions chunk = opts_with(2);
  chunk.checkpoint_path = cp.path();
  chunk.max_shards = 5;  // 333 trials / 16 = 21 shards -> several chunks
  int chunks = 0;
  RunOutput out;
  do {
    out = run_trials(e, chunk);
    ++chunks;
    ASSERT_LT(chunks, 50) << "chunked run failed to converge";
  } while (!out.info.complete);
  EXPECT_GE(chunks, 4);
  EXPECT_GT(out.info.shards_resumed, 0);
  EXPECT_EQ(out.merged.to_json().dump(), want);
  // The checkpoint file is removed once the run completes.
  std::ifstream in(cp.path());
  EXPECT_FALSE(in.good());
}

TEST(EngineCheckpoint, ResumedShardsAreNotReRun) {
  const Experiment e = make_synthetic();
  TempCheckpoint cp("full");
  RunOptions o = opts_with(2);
  o.checkpoint_path = cp.path();
  o.max_shards = 1000;  // finish in one chunk, but keep checkpointing on
  const RunOutput first = run_trials(e, o);
  EXPECT_TRUE(first.info.complete);
  // Simulate an interrupted final step: write the shards back ourselves by
  // re-running with max_shards that stops before completion.
  RunOptions partial = o;
  partial.max_shards = 7;
  const RunOutput chunk = run_trials(e, partial);
  EXPECT_FALSE(chunk.info.complete);
  const RunOutput resumed = run_trials(e, o);
  EXPECT_TRUE(resumed.info.complete);
  EXPECT_EQ(resumed.info.shards_resumed, 7);
  EXPECT_EQ(resumed.info.shards_executed,
            resumed.info.shards_total - 7);
  EXPECT_EQ(resumed.merged.to_json().dump(),
            first.merged.to_json().dump());
}

TEST(EngineCheckpoint, MismatchedCheckpointLinesAreIgnored) {
  const Experiment e = make_synthetic();
  TempCheckpoint cp("stale");
  // Seed a checkpoint under a DIFFERENT experiment seed; its shards must not
  // be resumed into this run.
  RunOptions other = opts_with(2);
  other.has_seed = true;
  other.seed = 999;
  other.checkpoint_path = cp.path();
  other.max_shards = 3;
  (void)run_trials(e, other);
  // Plus a torn line.
  {
    std::ofstream out(cp.path(), std::ios::app);
    out << "{\"schema\": \"blunt-exp-shard\", \"trunc";
  }
  RunOptions mine = opts_with(2);
  mine.checkpoint_path = cp.path();
  const RunOutput out = run_trials(e, mine);
  EXPECT_EQ(out.info.shards_resumed, 0);
  EXPECT_EQ(out.merged.to_json().dump(),
            run_trials(e, opts_with(2)).merged.to_json().dump());
}

TEST(EngineCheckpoint, TornTailIsSealedByTheNextShard) {
  const Experiment e = make_synthetic();
  TempCheckpoint cp("torn_tail");
  RunOptions o = opts_with(1);
  o.checkpoint_path = cp.path();
  o.max_shards = 1;
  // Shard 0's line, then a kill mid-append (a fragment with no newline),
  // then shard 1's line from the resumed run.
  ASSERT_FALSE(run_trials(e, o).info.complete);
  {
    std::ofstream out(cp.path(), std::ios::app | std::ios::binary);
    out << "{\"schema\":\"blunt-exp-shard\",\"accum";
  }
  ASSERT_FALSE(run_trials(e, o).info.complete);

  // Both whole shard lines resume; only the fragment is skipped.
  ::testing::internal::CaptureStderr();
  const RunOutput third = run_trials(e, o);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(third.info.shards_resumed, 2);
  EXPECT_NE(err.find("skipped 1 stale/corrupt line(s)"), std::string::npos)
      << err;
}

TEST(EngineCheckpoint, KilledMidRunResumesBitIdentical) {
  // A per-trial sleep makes the run long enough (12 shards of ~24 ms) for a
  // SIGKILL to land mid-run; it changes nothing the accumulator sees.
  Experiment e = make_synthetic(96);
  const auto inner = e.trial;
  e.trial = [inner](const TrialContext& ctx, Accumulator& acc) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    inner(ctx, acc);
  };
  TempCheckpoint cp("killed");
  RunOptions o = opts_with(1, /*shard_size=*/8);
  o.checkpoint_path = cp.path();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    (void)run_trials(e, o);
    std::_Exit(0);
  }
  // kill -9 as soon as at least one shard line has landed: no cleanup, and
  // possibly a torn line from the append in flight.
  const auto has_line = [&cp] {
    std::ifstream in(cp.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return bytes.find('\n') != std::string::npos;
  };
  for (int i = 0; i < 5000 && !has_line(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the run finished before the kill";

  const RunOutput resumed = run_trials(e, o);
  EXPECT_TRUE(resumed.info.complete);
  EXPECT_GE(resumed.info.shards_resumed, 1);
  EXPECT_LT(resumed.info.shards_resumed, resumed.info.shards_total);
  EXPECT_EQ(resumed.merged.canonical_dump(),
            run_trials(e, opts_with(1, /*shard_size=*/8))
                .merged.canonical_dump());
}

/// A registered experiment's merged accumulators and finalized report.
struct Finalized {
  std::string merged;  // merged.to_json().dump()
  obs::Json report;
};

/// Runs a registered experiment's trial phase and finalize hook, without
/// writing a report.
Finalized run_finalized(const std::string& name, int threads,
                        std::int64_t trials = -1) {
  register_builtin_experiments();
  const Experiment* e = find_experiment(name);
  EXPECT_NE(e, nullptr) << name;
  if (e == nullptr) return {};
  RunOptions o = opts_with(threads);
  o.trials = trials;
  const RunOutput out = run_trials(*e, o);
  obs::BenchReport report(e->name);
  EXPECT_EQ(e->finalize(report, out.merged, out.info), 0) << name;
  return {out.merged.to_json().dump(), report.to_json()};
}

obs::Json finalized_report(const std::string& name, int threads,
                           std::int64_t trials = -1) {
  return run_finalized(name, threads, trials).report;
}

TEST(BuiltinExperiments, Theorem42MetricsThreadCountIndependent) {
  // theorem42_bound at a small trial count (real runs use the default 3000),
  // plus the experiments ported from standalone benches at their fixed
  // layouts. The merged accumulators must be byte-identical, and finalize on
  // them must produce byte-identical metrics and registry sections: timings
  // and engine provenance are the only allowed differences between thread
  // counts, and they live in other sections.
  for (const auto& [name, trials] :
       std::vector<std::pair<std::string, std::int64_t>>{
           {"theorem42_bound", 128},
           {"atomic_baseline", -1},
           {"figure1_adversary", -1},
           {"k_tradeoff", -1},
           {"vitanyi_il_blunting", -1},
           {"consensus", -1}}) {
    SCOPED_TRACE(name);
    const Finalized serial = run_finalized(name, 1, trials);
    const Finalized parallel = run_finalized(name, 4, trials);
    ASSERT_EQ(serial.merged, parallel.merged);
    EXPECT_EQ(serial.report.at("metrics").dump(),
              parallel.report.at("metrics").dump());
    EXPECT_EQ(serial.report.at("registry").dump(),
              parallel.report.at("registry").dump());
  }
}

TEST(BuiltinExperiments, AtomicBaselineReproducesOneHalf) {
  // Appendix A.1: the exact solver and the exhaustive explorer both give
  // Prob[bad] = 1/2 against the optimal strong adversary.
  const obs::Json m = finalized_report("atomic_baseline", 2).at("metrics");
  EXPECT_EQ(m.at("bad_probability_exact").as_string(), "1/2");
  EXPECT_EQ(m.at("bad_probability_explorer").as_double(), 0.5);
  EXPECT_TRUE(m.at("reproduces_paper").as_bool());
  // Random scheduling is a weak adversary: its pooled bad-outcome rate stays
  // well below the strong-adversary optimum 1/2.
  EXPECT_EQ(m.at("bad_probability_mc_pooled_trials").as_int(), 4000);
  EXPECT_LT(m.at("bad_probability_mc_pooled").as_double(), 0.5);
  EXPECT_LT(m.at("bad_probability_mc_best_seed").as_double(), 0.5);
}

TEST(BuiltinExperiments, Figure1AdversaryWinsBothCoinBranches) {
  // Appendix A.2: termination probability 0 over plain ABD; the branch pair
  // refutes strong linearizability but is tail-strong w.r.t. Pi_ABD.
  const obs::Json m = finalized_report("figure1_adversary", 1).at("metrics");
  EXPECT_EQ(m.at("bad_probability").as_double(), 1.0);
  EXPECT_EQ(m.at("adversary_wins").as_int(), 2);
  EXPECT_TRUE(m.at("strong_linearizability_refuted").as_bool());
  EXPECT_TRUE(m.at("tail_strong_holds").as_bool());
}

TEST(BuiltinExperiments, AllBuiltinsAreRegistered) {
  register_builtin_experiments();
  const std::vector<std::string> want = {
      "abd_k_sweep",     "atomic_baseline",    "chaos_soak",
      "consensus",       "figure1_adversary",  "fuzz_search",
      "hotpath",         "k_tradeoff",         "n_sweep",
      "snapshot_blunting", "theorem42_bound",  "vitanyi_il_blunting"};
  std::vector<std::string> names;
  for (const Experiment* e : list_experiments()) names.push_back(e->name);
  EXPECT_EQ(names, want);
  EXPECT_EQ(find_experiment("nope"), nullptr);
}

/// Sets (or, given nullptr, unsets) an environment variable for one scope
/// and puts the prior value back on every exit path.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (prior_) {
      ::setenv(name_.c_str(), prior_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> prior_;
};

TEST(BuiltinExperiments, FuzzSearchWritesOneReportAndOneLedgerRecord) {
  // run_and_report owns the report write: a finalize hook that also wrote
  // one would leave a second ledger record without engine provenance.
  const std::string dir =
      std::string(::testing::TempDir()) + "blunt_fuzz_ledger";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ScopedEnv env_bench_dir("BLUNT_BENCH_DIR", dir.c_str());
  const ScopedEnv env_ledger("BLUNT_LEDGER", nullptr);
  const ScopedEnv env_ledger_path("BLUNT_LEDGER_PATH", nullptr);
  const ScopedEnv env_corpus_path("BLUNT_FUZZ_CORPUS_PATH", nullptr);
  register_builtin_experiments();
  RunOptions o;
  o.trials = 1;  // one abd_bug chain
  ASSERT_EQ(run_and_report(*find_experiment("fuzz_search"), o), 0);

  const obs::Ledger ledger = obs::load_ledger(dir + "/BENCH_HISTORY.jsonl");
  ASSERT_EQ(ledger.entries.size(), 1u);
  const obs::Json* threads =
      ledger.entries[0].report.at("environment").find("engine_threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->as_int(), 1);
  std::filesystem::remove_all(dir);
}

/// A fresh, empty directory under the test temp dir, removed on exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_engine_" + tag) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

obs::Json load_json(const std::string& path) {
  std::ifstream in(path);
  return obs::Json::parse(std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()));
}

/// Runs a registered experiment through run_and_report into `dir` (no
/// ledger) and returns its exit code.
int report_into(const std::string& dir, const std::string& name,
                RunOptions o) {
  const ScopedEnv env_bench_dir("BLUNT_BENCH_DIR", dir.c_str());
  const ScopedEnv env_ledger("BLUNT_LEDGER", "0");
  register_builtin_experiments();
  return run_and_report(*find_experiment(name), o);
}

TEST(RunAndReport, TotalCoversTheTrialPhase) {
  // n_sweep's trial phase dominates its run; a report clock started after
  // the trial phase would put "total" well below "engine_trials".
  const TempDir dir("total");
  RunOptions o = opts_with(2);
  o.trials = 15;
  ASSERT_EQ(report_into(dir.path(), "n_sweep", o), 0);
  const obs::Json t =
      load_json(dir.path() + "/BENCH_n_sweep.json").at("timings_ms");
  EXPECT_GE(t.at("total").as_double(), t.at("engine_trials").as_double());
}

TEST(RunAndReport, NSweepProfileAddsOnlyProfileKeys) {
  // --profile may add the profile-only keys (profile.* metrics,
  // scaling_rows, the "profile" section, environment.engine_profile) and
  // must leave every other key of the report untouched.
  const TempDir off("nsweep_off");
  const TempDir on("nsweep_on");
  RunOptions o = opts_with(2);
  o.trials = 15;
  ASSERT_EQ(report_into(off.path(), "n_sweep", o), 0);
  o.profile = true;
  ASSERT_EQ(report_into(on.path(), "n_sweep", o), 0);
  const obs::Json a = load_json(off.path() + "/BENCH_n_sweep.json");
  const obs::Json b = load_json(on.path() + "/BENCH_n_sweep.json");

  const obs::JsonObject& ma = a.at("metrics").as_object();
  const obs::JsonObject& mb = b.at("metrics").as_object();
  for (const auto& [key, value] : ma) {
    ASSERT_NE(mb.find(key), mb.end()) << key;
    EXPECT_EQ(mb.at(key).dump(), value.dump()) << key;
  }
  int added = 0;
  for (const auto& [key, value] : mb) {
    if (ma.count(key) != 0) continue;
    ++added;
    EXPECT_TRUE(key.rfind("profile.", 0) == 0 || key == "scaling_rows")
        << key;
  }
  EXPECT_GT(added, 1);

  EXPECT_EQ(a.find("profile"), nullptr);
  EXPECT_NE(b.find("profile"), nullptr);
  EXPECT_EQ(a.at("registry").dump(), b.at("registry").dump());
  obs::JsonObject env_a = a.at("environment").as_object();
  obs::JsonObject env_b = b.at("environment").as_object();
  EXPECT_EQ(env_b.at("engine_profile").as_int(), 1);
  env_b.erase("engine_profile");
  EXPECT_EQ(obs::Json(env_a).dump(), obs::Json(env_b).dump());
  for (const auto& [section, value] : b.as_object()) {
    if (section == "profile" || section == "timings_ms") continue;
    EXPECT_NE(a.find(section), nullptr) << section;
  }
}

/// A cheap experiment whose trial body throws at trial `throw_at` (never
/// when negative) and whose finalize throws when `finalize_throws`.
Experiment make_throwing(std::int64_t throw_at, bool finalize_throws) {
  Experiment e = make_synthetic(64);
  e.name = "throwing";
  const auto body = e.trial;
  e.trial = [body, throw_at](const TrialContext& ctx, Accumulator& acc) {
    if (ctx.trial_index == throw_at) throw std::runtime_error("boom");
    body(ctx, acc);
  };
  e.finalize = [finalize_throws](obs::BenchReport&, const Accumulator&,
                                 const RunInfo&) -> int {
    if (finalize_throws) throw std::runtime_error("finalize boom");
    return 0;
  };
  return e;
}

TEST(RunAndReport, TrialExceptionFailsTheRunWithoutAReport) {
  const Experiment e = make_throwing(/*throw_at=*/37, false);
  RunOptions o = opts_with(4, /*shard_size=*/8);
  // The engine joins its workers and names the experiment, trial and shard.
  try {
    (void)run_trials(e, o);
    FAIL() << "run_trials swallowed the trial exception";
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("throwing: trial 37 (shard 4)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
  const TempDir dir("trial_throw");
  const ScopedEnv env_bench_dir("BLUNT_BENCH_DIR", dir.path().c_str());
  const ScopedEnv env_ledger("BLUNT_LEDGER", "0");
  EXPECT_NE(run_and_report(e, o), 0);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/BENCH_throwing.json"));
}

TEST(RunAndReport, FinalizeExceptionFailsTheRunWithoutAReport) {
  const Experiment e = make_throwing(/*throw_at=*/-1, true);
  const TempDir dir("finalize_throw");
  const ScopedEnv env_bench_dir("BLUNT_BENCH_DIR", dir.path().c_str());
  const ScopedEnv env_ledger("BLUNT_LEDGER", "0");
  EXPECT_NE(run_and_report(e, opts_with(2)), 0);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/BENCH_throwing.json"));
}

TEST(RunAndReport, FailedReportWriteFailsTheRun) {
  const Experiment e = make_throwing(/*throw_at=*/-1, false);
  const TempDir dir("write_fail");
  const std::string missing = dir.path() + "/no/such/dir";
  const ScopedEnv env_bench_dir("BLUNT_BENCH_DIR", missing.c_str());
  const ScopedEnv env_ledger("BLUNT_LEDGER", "0");
  EXPECT_NE(run_and_report(e, opts_with(2)), 0);
  // The same run into a directory that exists succeeds.
  const ScopedEnv env_ok("BLUNT_BENCH_DIR", dir.path().c_str());
  EXPECT_EQ(run_and_report(e, opts_with(2)), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/BENCH_throwing.json"));
}

}  // namespace
}  // namespace blunt::exp
