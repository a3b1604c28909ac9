// blunt_exp — the unified experiment runner.
//
//   blunt_exp --list
//   blunt_exp run <experiment> [--threads N] [--trials N] [--seed S]
//                 [--shard-size N] [--checkpoint FILE] [--max-shards N]
//                 [--timing-sweep T1,T2,...] [--bench-dir DIR]
//                 [--coverage] [--profile]
//                 [--progress FILE] [--progress-interval MS]
//   blunt_exp watch FILE [--poll MS]
//
// Runs a registered experiment on the deterministic parallel engine
// (src/exp): trials shard across a work-stealing pool, per-trial seeds
// derive purely from (seed, trial index), and the merged result — and hence
// the report's metrics section — is bit-identical for every --threads value.
// Reports are the standard schema-v1 BENCH_<name>.json files plus one ledger
// append, exactly like the bench binaries they replace.
//
// --checkpoint FILE enables shard-granular resume: finished shards append to
// FILE, an interrupted run — stopped by --max-shards N or killed outright,
// SIGKILL included — picks up where it left off when rerun with the same
// flags, and the resumed report's metrics are bit-identical to an
// uninterrupted run. --max-shards N time-boxes each chunk (the run exits
// after N new shards; rerun to continue). --timing-sweep re-runs the trial
// phase at extra thread counts, records each wall clock in timings_ms, and
// asserts the merged results are bit-identical — the engine's built-in
// determinism self-check.
//
// --coverage turns on execution-coverage fingerprinting (schedule hashes,
// interleaving n-grams, object histories — see obs/fingerprint.hpp): the
// report gains coverage.* metrics and the shard-indexed coverage-growth
// curve, all bit-identical for every --threads value. --progress FILE
// appends live heartbeat JSONL (exp/progress.hpp schema) from a sampler
// thread; `blunt_exp watch FILE` tails such a file into a one-line status
// display and exits when the run's final done=true record lands.
//
// --profile turns on the deterministic profiler (obs/prof.hpp): trial worlds
// attribute work to per-subsystem phases and exact counters, the report
// gains profile.* metrics plus the structured "profile" section, and a
// collapsed-stack flamegraph lands next to the report as
// BENCH_<name>.flame.txt. Exact profile counters are bit-identical for every
// --threads value; the nanosecond timings are advisory wall-clock.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/progress.hpp"
#include "exp/runner.hpp"

namespace {

int list_experiments() {
  blunt::exp::register_builtin_experiments();
  std::printf("registered experiments:\n");
  for (const blunt::exp::Experiment* e : blunt::exp::list_experiments()) {
    std::printf("  %-20s %s\n", e->name.c_str(), e->description.c_str());
    std::printf("  %-20s   (default trials %lld, seed %llu)\n", "",
                static_cast<long long>(e->default_trials),
                static_cast<unsigned long long>(e->default_seed));
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --list\n"
      "       %s run <experiment> [--threads N] [--trials N] [--seed S]\n"
      "           [--shard-size N] [--checkpoint FILE] [--max-shards N]\n"
      "           [--timing-sweep T1,T2,...] [--bench-dir DIR]\n"
      "           [--coverage] [--profile]\n"
      "           [--progress FILE] [--progress-interval MS]\n"
      "       %s watch FILE [--poll MS]\n",
      argv0, argv0, argv0);
  return 2;
}

int watch_main(int argc, char** argv, const char* argv0) {
  // Exactly one FILE operand; optional --poll MS.
  std::string path;
  int poll_ms = 250;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--poll") == 0 && i + 1 < argc) {
      poll_ms = std::atoi(argv[++i]);
    } else if (argv[i][0] == '-' || !path.empty()) {
      std::fprintf(stderr, "unexpected watch argument %s\n", argv[i]);
      return usage(argv0);
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) return usage(argv0);
  return blunt::exp::watch_progress(path, poll_ms, stdout);
}

std::vector<int> parse_thread_list(const std::string& arg) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int t = std::atoi(tok.c_str());
    if (t > 0) out.push_back(t);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "--list") == 0 ||
      std::strcmp(argv[1], "list") == 0) {
    return list_experiments();
  }
  if (std::strcmp(argv[1], "watch") == 0 ||
      std::strcmp(argv[1], "--watch") == 0) {
    return watch_main(argc - 2, argv + 2, argv[0]);
  }
  if (std::strcmp(argv[1], "run") != 0 || argc < 3) return usage(argv[0]);

  const std::string name = argv[2];
  blunt::exp::RunOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--threads") {
      opts.threads = std::atoi(value());
      if (opts.threads < 1) opts.threads = 1;
    } else if (flag == "--trials") {
      opts.trials = std::atoll(value());
    } else if (flag == "--seed") {
      opts.has_seed = true;
      opts.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--shard-size") {
      opts.shard_size = std::atoi(value());
    } else if (flag == "--checkpoint") {
      opts.checkpoint_path = value();
    } else if (flag == "--max-shards") {
      opts.max_shards = std::atoi(value());
    } else if (flag == "--timing-sweep") {
      opts.timing_sweep = parse_thread_list(value());
    } else if (flag == "--bench-dir") {
      setenv("BLUNT_BENCH_DIR", value(), /*overwrite=*/1);
    } else if (flag == "--coverage") {
      opts.coverage = true;
    } else if (flag == "--profile") {
      opts.profile = true;
    } else if (flag == "--progress") {
      opts.progress_path = value();
    } else if (flag == "--progress-interval") {
      opts.progress_interval_ms = std::atoi(value());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return usage(argv[0]);
    }
  }

  return blunt::exp::run_registered(name, opts);
}
