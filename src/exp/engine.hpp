// The deterministic parallel experiment engine.
//
// run_trials() shards the trial space [0, trials) into fixed-size shards and
// lets a work-stealing pool of worker threads claim shards from an atomic
// counter. Determinism survives the stealing because nothing a trial
// computes depends on WHERE it ran:
//
//   * trial seeds derive purely from (experiment_seed, trial_index)
//     (exp/seed.hpp) — no shared RNG, no thread ids;
//   * each trial builds its own sim::World; workers share no mutable state
//     but the claim counter and their private shard accumulators;
//   * the shard structure is a pure function of (trials, shard_size) — the
//     thread count only changes who runs a shard, never what a shard is;
//   * aggregation folds shard accumulators in ascending shard index on the
//     calling thread, after the barrier — a fixed merge tree, so the folded
//     doubles are bit-identical for ANY --threads value, including 1
//     (threads == 1 exercises the same shard/fold path).
//
// Checkpoint/resume is shard-granular: every completed shard is appended to
// a JSONL checkpoint (the obs journal writer, obs/lockfile.hpp) keyed by
// (experiment, seed, trials, shard_size); a resumed run loads matching
// shards, skips them, and folds their stored accumulators into the same
// position of the same merge tree — contributing the same bits as if they
// had just run. A run killed at any instant (SIGKILL included) therefore
// resumes to the bits of an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace blunt::exp {

/// Shard granularity when neither the experiment nor the caller picks one.
/// Small enough that a 4-digit trial count still spreads over every core,
/// large enough that the claim counter is not contended per-trial.
inline constexpr int kDefaultShardSize = 32;

struct RunOptions {
  int threads = 1;
  /// Requested trial count; -1 = experiment default. Experiments with
  /// structured trial spaces may reinterpret or ignore it via
  /// Experiment::resolve_trials.
  std::int64_t trials = -1;
  /// Experiment seed override; when !has_seed, Experiment::default_seed.
  bool has_seed = false;
  std::uint64_t seed = 0;
  /// 0 = Experiment::default_shard_size, else kDefaultShardSize.
  int shard_size = 0;
  /// Non-empty: load matching shards before running and append each newly
  /// completed shard. The file is removed once the run completes.
  std::string checkpoint_path;
  /// > 0: stop after this many newly executed shards (time-boxed chunk of a
  /// long soak; requires checkpoint_path to be useful). RunInfo::complete
  /// reports whether the whole trial space is now covered.
  int max_shards = 0;
  /// Extra thread counts to time: for each T the engine re-runs the full
  /// trial phase at T threads (no checkpointing), records the wall clock in
  /// RunInfo::sweep_wall_ms, and asserts the merged result is bit-identical
  /// to the main pass — a built-in determinism self-check.
  std::vector<int> timing_sweep;
  /// Execution-coverage opt-in: sets TrialContext::coverage so trial bodies
  /// record fingerprints, and makes the fold compute the shard-indexed
  /// coverage-growth curve (RunInfo::coverage_growth). Off by default —
  /// coverage must cost nothing when unused.
  bool coverage = false;
  /// Deterministic-profiling opt-in: sets TrialContext::profile so trial
  /// bodies run profiled worlds and fold per-subsystem ProfileSnapshots into
  /// the accumulator. Exact profile counters are bit-identical for any
  /// --threads value; nanosecond timings are advisory. Off by default — the
  /// disabled path must be the exact pre-profiling hot path.
  bool profile = false;
  /// Non-empty: append heartbeat JSONL records (exp/progress.hpp) to this
  /// file from a sampler thread that only reads worker-side atomics — the
  /// merged result is bit-identical with or without progress reporting.
  std::string progress_path;
  /// Sampler cadence for progress_path (clamped to >= 10).
  int progress_interval_ms = 500;
};

struct RunOutput {
  Accumulator merged;
  RunInfo info;
};

/// Runs the trial phase (no finalize, no report). See the file comment for
/// the determinism contract.
[[nodiscard]] RunOutput run_trials(const Experiment& e, const RunOptions& opts);

}  // namespace blunt::exp
