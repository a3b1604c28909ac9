// The standing soak driver: continuously cycle a rotation of registered
// experiments under a wall-clock / pass budget.
//
// Each PASS runs one experiment of the rotation to completion through the
// normal engine + report path, so every finished pass appends one
// provenance-stamped entry to BENCH_HISTORY.jsonl — the soak literally IS
// repeated bench runs, and blunt_report's per-metric sparklines become
// drift-over-time charts for free. After each pass the driver re-renders
// the dashboard by exec'ing the sibling blunt_report binary with a plain
// argv — no shell, so any --bench-dir name is passed through verbatim
// (--no-gate: the soak observes trends, it does not gate).
//
// Crash tolerance mirrors the rest of the repo: the rotation position
// lives in SOAK_STATE.jsonl (a journal of pass records, obs/lockfile.hpp:
// torn lines skipped), and the in-flight pass checkpoints shards under a
// pass-indexed name. SIGKILL at any point, restart with the same flags, and the driver
// re-derives: completed passes from the state file, the interrupted pass's
// finished shards from its checkpoint (same pass index -> same derived
// seed -> resumed shards contribute identical bits).
//
// Per-pass seeds derive as splitmix64(base_seed ^ pass_index): distinct
// passes of the same experiment explore distinct trial spaces (that is the
// point of a soak), yet the mapping is pure, so a resumed pass recomputes
// the exact seed it crashed under.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace blunt::exp {

inline constexpr const char* kSoakSchema = "blunt-soak-pass";
inline constexpr int kSoakVersion = 1;

/// One rotation slot: an experiment name and an optional trial override
/// (-1: the experiment default). Parsed from "name" or "name:trials".
struct RotationEntry {
  std::string experiment;
  std::int64_t trials = -1;
};

/// "name[:trials]" -> entry; false on an empty name or junk trial count.
[[nodiscard]] bool parse_rotation_entry(const std::string& arg,
                                        RotationEntry* out);

struct SoakOptions {
  std::vector<RotationEntry> rotation;
  /// Reports, ledger, dashboard, state, and checkpoints all land here.
  std::string bench_dir = ".";
  /// Stop before starting a pass once this much wall clock elapsed (0 =
  /// no time budget). The in-flight pass always finishes: budgets bound
  /// the soak, crashes are what interrupt passes.
  std::int64_t budget_ms = 0;
  /// Stop after this many completed passes, counting prior sessions'
  /// passes from the state file (0 = unbounded).
  std::int64_t max_passes = 0;
  std::uint64_t base_seed = 0x50414b53ULL;  // per-pass: splitmix64(base^pass)
  int threads = 1;
  /// Re-render the dashboard after each pass (sibling blunt_report binary).
  bool regen_dashboard = true;
};

struct SoakResult {
  std::int64_t passes_completed = 0;  // this session
  std::int64_t passes_total = 0;      // including prior sessions
  int exit_code = 0;  // first failing pass's code, 0 when all clean
};

/// What the state file records: the rotation position (completed-pass
/// count) and the number of lines the journal reader skipped.
struct SoakPosition {
  std::int64_t passes = 0;
  int skipped_lines = 0;
};

[[nodiscard]] SoakPosition load_soak_position(const std::string& state_path);

/// The seed pass `pass_index` runs under.
[[nodiscard]] std::uint64_t soak_pass_seed(std::uint64_t base_seed,
                                           std::int64_t pass_index);

/// Runs the soak loop described in the file comment.
[[nodiscard]] SoakResult run_soak(const SoakOptions& opts);

}  // namespace blunt::exp
