// The report-producing wrapper around the engine: run an experiment's trial
// phase, hand the merged accumulator to its serial finalize hook, stamp
// engine provenance and wall clocks, and emit the standard schema-v1
// BENCH_<name>.json + single ledger append. The unified `blunt_exp` CLI
// funnels through here.
#pragma once

#include <string>

#include "exp/engine.hpp"

namespace blunt::exp {

/// Runs `e` under `opts` and writes its report. Returns the process exit
/// code (the finalize hook's, usually 0).
///
/// Engine provenance lands in the report's environment section
/// (engine_threads, engine_shard_size, engine_seed, engine_trials,
/// engine_shards_total/resumed/executed) and the trial-phase wall clocks in
/// timings_ms ("engine_trials", plus "engine_trials_t<N>" per timing-sweep
/// thread count) — all outside the metrics section, so fixed-seed reports
/// differ across thread counts ONLY in provenance and timing keys.
///
/// A complete run also writes a collapsed-stack flamegraph sidecar
/// (BENCH_<name>.flame.txt) when the merged accumulator carries profiles.
///
/// An incomplete run (max_shards budget exhausted) writes NO report: the
/// checkpoint keeps the finished shards, a progress line goes to stdout, and
/// the return value is 0 — rerun with the same checkpoint to continue.
int run_and_report(const Experiment& e, const RunOptions& opts);

/// Looks `name` up in the registry (registering builtins first) and runs it.
/// Unknown names print to stderr and return 2.
int run_registered(const std::string& name, const RunOptions& opts);

}  // namespace blunt::exp
