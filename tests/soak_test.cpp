// The soak driver (src/exp/soak.hpp): rotation parsing, pass-seed
// derivation, crash-tolerant position reload, and the full run_soak loop
// (pass records + ledger appends + resume) against a synthetic experiment.
#include "exp/soak.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "exp/experiment.hpp"
#include "exp/seed.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"

namespace blunt::exp {
namespace {

TEST(SoakRotation, ParsesNameAndOptionalTrials) {
  RotationEntry e;
  ASSERT_TRUE(parse_rotation_entry("theorem42_bound", &e));
  EXPECT_EQ(e.experiment, "theorem42_bound");
  EXPECT_EQ(e.trials, -1);

  ASSERT_TRUE(parse_rotation_entry("chaos_soak:250", &e));
  EXPECT_EQ(e.experiment, "chaos_soak");
  EXPECT_EQ(e.trials, 250);
}

TEST(SoakRotation, RejectsJunk) {
  RotationEntry e;
  EXPECT_FALSE(parse_rotation_entry("", &e));
  EXPECT_FALSE(parse_rotation_entry(":50", &e));
  EXPECT_FALSE(parse_rotation_entry("exp:", &e));
  EXPECT_FALSE(parse_rotation_entry("exp:12x", &e));
  EXPECT_FALSE(parse_rotation_entry("exp:-5", &e));
}

TEST(SoakSeed, PureAndPassDistinct) {
  const std::uint64_t base = 0xB10C5EEDULL;
  EXPECT_EQ(soak_pass_seed(base, 0), soak_pass_seed(base, 0));
  EXPECT_NE(soak_pass_seed(base, 0), soak_pass_seed(base, 1));
  EXPECT_EQ(soak_pass_seed(base, 7),
            splitmix64(base ^ static_cast<std::uint64_t>(7)));
}

TEST(SoakState, PositionReloadsFromRecordsAndSkipsTornLines) {
  const std::string path =
      std::string(::testing::TempDir()) + "blunt_soak_state.jsonl";
  std::remove(path.c_str());
  // A missing file is a fresh rotation.
  EXPECT_EQ(load_soak_position(path).passes, 0);
  {
    std::ofstream out(path);
    out << "{\"schema\":\"blunt-soak-pass\",\"version\":1,\"pass\":0}\n";
    out << "\n";                                        // blank
    out << "{\"schema\":\"blunt-ledger-entry\"}\n";     // foreign schema
    out << "{\"schema\":\"blunt-soak-pass\",\"pa";      // torn by a kill
    out << "\n{\"schema\":\"blunt-soak-pass\",\"version\":1,\"pass\":1}\n";
  }
  EXPECT_EQ(load_soak_position(path).passes, 2);
  std::remove(path.c_str());
}

/// Registers a fast synthetic experiment under a name no builtin uses (the
/// registry is last-wins and register_builtin_experiments never removes, so
/// it stays addressable through run_registered).
void register_synthetic() {
  Experiment e;
  e.name = "soak_synth_test";
  e.description = "soak test workload";
  e.default_trials = 64;
  e.default_seed = 5;
  e.default_shard_size = 16;
  e.trial = [](const TrialContext& ctx, Accumulator& acc) {
    acc.counter("n") += 1;
    acc.stat("x").add(static_cast<double>(ctx.seed % 101));
  };
  e.finalize = [](obs::BenchReport& report, const Accumulator& acc,
                  const RunInfo&) {
    report.set_metric("n", static_cast<double>(acc.counter_or("n")));
    return 0;
  };
  register_experiment(e);
}

TEST(SoakState, TornTailIsSealedByTheNextPass) {
  register_synthetic();
  const std::string dir =
      std::string(::testing::TempDir()) + "blunt_soak_torn";
  ::mkdir(dir.c_str(), 0755);
  const std::string state = dir + "/SOAK_STATE.jsonl";
  std::remove(state.c_str());
  ::setenv("BLUNT_LEDGER", "0", /*overwrite=*/1);

  SoakOptions opts;
  RotationEntry entry;
  ASSERT_TRUE(parse_rotation_entry("soak_synth_test:16", &entry));
  opts.rotation.push_back(entry);
  opts.bench_dir = dir;
  opts.regen_dashboard = false;

  // Pass 0's record, then a kill mid-append of the next record (a fragment
  // with no newline), then pass 1 appended by the restarted driver.
  opts.max_passes = 1;
  ASSERT_EQ(run_soak(opts).passes_total, 1);
  {
    std::ofstream out(state, std::ios::app | std::ios::binary);
    out << "{\"schema\":\"blunt-soak-pass\",\"pa";
  }
  opts.max_passes = 2;
  ASSERT_EQ(run_soak(opts).passes_total, 2);

  // Both whole records survive; only the fragment is skipped.
  const SoakPosition pos = load_soak_position(state);
  EXPECT_EQ(pos.passes, 2);
  EXPECT_EQ(pos.skipped_lines, 1);
  ::unsetenv("BLUNT_LEDGER");
  std::remove(state.c_str());
  std::remove((dir + "/BENCH_soak_synth_test.json").c_str());
}

TEST(SoakLoop, UnknownExperimentFailsFast) {
  SoakOptions opts;
  RotationEntry e;
  ASSERT_TRUE(parse_rotation_entry("no_such_experiment", &e));
  opts.rotation.push_back(e);
  opts.bench_dir = ::testing::TempDir();
  opts.max_passes = 1;
  opts.regen_dashboard = false;
  EXPECT_EQ(run_soak(opts).exit_code, 2);
}

TEST(SoakLoop, PassesAppendStateAndLedgerAndResumeContinues) {
  register_synthetic();

  const std::string dir = std::string(::testing::TempDir()) + "blunt_soak_run";
  ::mkdir(dir.c_str(), 0755);
  const std::string state = dir + "/SOAK_STATE.jsonl";
  const std::string ledger_path = dir + "/BENCH_HISTORY.jsonl";
  const std::string bench = dir + "/BENCH_soak_synth_test.json";
  std::remove(state.c_str());
  std::remove(ledger_path.c_str());
  std::remove(bench.c_str());
  // The soak must see the default ledger policy (its own bench dir), not
  // whatever this test binary's environment happens to carry.
  ::unsetenv("BLUNT_LEDGER");
  ::unsetenv("BLUNT_LEDGER_PATH");

  SoakOptions opts;
  RotationEntry entry;
  ASSERT_TRUE(parse_rotation_entry("soak_synth_test:48", &entry));
  opts.rotation.push_back(entry);
  opts.bench_dir = dir;
  opts.max_passes = 2;
  opts.base_seed = 99;
  opts.regen_dashboard = false;

  const SoakResult first = run_soak(opts);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.passes_completed, 2);
  EXPECT_EQ(first.passes_total, 2);

  // Two pass records, each carrying the pass-derived seed and the trial
  // override; the pass-indexed checkpoints were consumed by the engine.
  EXPECT_EQ(load_soak_position(state).passes, 2);
  {
    std::ifstream in(state);
    std::string line;
    std::int64_t pass = 0;
    while (std::getline(in, line)) {
      const obs::Json j = obs::Json::parse(line);
      EXPECT_EQ(j.at("pass").as_int(), pass);
      EXPECT_EQ(j.at("experiment").as_string(), "soak_synth_test");
      EXPECT_EQ(j.at("trials").as_int(), 48);
      EXPECT_EQ(j.at("exit_code").as_int(), 0);
      EXPECT_EQ(static_cast<std::uint64_t>(j.at("seed").as_int()),
                soak_pass_seed(99, pass));
      ++pass;
    }
    EXPECT_EQ(pass, 2);
  }
  EXPECT_FALSE(
      std::ifstream(dir + "/SOAK_CKPT_soak_synth_test_p0.jsonl").good());

  // Each pass went through the normal report path: one BENCH rewrite plus
  // one provenance-stamped ledger append per pass.
  EXPECT_TRUE(std::ifstream(bench).good());
  const obs::Ledger ledger = obs::load_ledger(ledger_path);
  EXPECT_EQ(ledger.entries.size(), 2u);
  EXPECT_EQ(ledger.skipped_lines, 0);

  // Restart with a higher cap: the position reloads from the state file and
  // exactly one more pass runs (the resume path a SIGKILL would take).
  opts.max_passes = 3;
  const SoakResult second = run_soak(opts);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.passes_completed, 1);
  EXPECT_EQ(second.passes_total, 3);
  EXPECT_EQ(load_soak_position(state).passes, 3);
  EXPECT_EQ(obs::load_ledger(ledger_path).entries.size(), 3u);

  std::remove(state.c_str());
  std::remove(ledger_path.c_str());
  std::remove(bench.c_str());
}

}  // namespace
}  // namespace blunt::exp
