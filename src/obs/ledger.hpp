// Append-only experiment ledger.
//
// Every bench run appends one JSON line to BENCH_HISTORY.jsonl, wrapping the
// full BenchReport in a provenance stamp (git SHA, unix timestamp, hostname,
// build flavor). The ledger is the repo's perf trajectory: the loader
// reconstructs per-metric time series across commits, and tools/blunt_report
// turns them into sparklines and regression verdicts.
//
// Line schema (version 1):
//
//   {"schema": "blunt-ledger-entry", "schema_version": 1,
//    "git_sha": "<40-hex or \"unknown\">", "timestamp_unix_s": <int>,
//    "hostname": "<string>", "build_flavor": "<CMAKE_BUILD_TYPE>",
//    "report": { <full blunt-bench-report document> }}
//
// The file is a journal (obs/lockfile.hpp): concurrent benches append whole
// CRC-framed lines, and the loader tolerates (counts, skips) corrupted or
// partial lines so a crashed run can never poison the history.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace blunt::obs {

/// Provenance stamped onto every ledger entry.
struct LedgerStamp {
  std::string git_sha = "unknown";
  std::int64_t timestamp_unix_s = 0;
  std::string hostname = "unknown";
  std::string build_flavor = "unknown";
};

/// Stamp for the current process: $BLUNT_GIT_SHA (else `git rev-parse HEAD`,
/// else "unknown"), wall-clock time, gethostname(), and the build flavor
/// baked in at compile time ($BLUNT_BUILD_FLAVOR overrides).
[[nodiscard]] LedgerStamp collect_stamp();

struct LedgerEntry {
  LedgerStamp stamp;
  Json report;  // a full blunt-bench-report document
};

[[nodiscard]] Json entry_to_json(const LedgerEntry& e);

/// Shape check for one parsed ledger line. Returns an explanation for the
/// first violation, empty string when valid.
[[nodiscard]] std::string validate_entry_json(const Json& j);

/// Parses one ledger line that already passed validate_entry_json.
[[nodiscard]] LedgerEntry entry_from_json(const Json& j);

/// Appends one entry as a single journal line (obs::locked_append); creates
/// the file if needed. Throws std::runtime_error when the file cannot be
/// opened or written.
void append_entry(const std::string& path, const LedgerEntry& e);

/// Ledger location policy: $BLUNT_LEDGER_PATH wins; otherwise
/// $BLUNT_BENCH_DIR/BENCH_HISTORY.jsonl (default "./BENCH_HISTORY.jsonl").
[[nodiscard]] std::string default_ledger_path();

/// The hook benches call: false only when $BLUNT_LEDGER=0 opts out.
[[nodiscard]] bool ledger_enabled();

/// Stamps `report_json` with collect_stamp() and appends it to the default
/// ledger. Returns the path written.
std::string append_report(const Json& report_json);

struct Ledger {
  std::vector<LedgerEntry> entries;  // file order == chronological append order
  int skipped_lines = 0;             // corrupted / schema-invalid lines
};

/// Loads every valid entry, skipping (and counting) corrupted lines. A
/// missing file yields an empty ledger, not an error; blank lines are
/// ignored without counting.
[[nodiscard]] Ledger load_ledger(const std::string& path);

/// One point of a reconstructed per-metric time series.
struct SeriesPoint {
  std::size_t entry_index = 0;  // index into Ledger::entries
  LedgerStamp stamp;
  double value = 0.0;
};

/// Resolves a dotted metric path inside a bench report. Supported prefixes:
/// "metrics.<key>", "timings_ms.<key>", "registry.counters.<name>",
/// "registry.gauges.<name>" (counter/gauge names may themselves contain
/// dots). Returns nullptr when absent or non-numeric.
[[nodiscard]] const Json* resolve_metric_path(const Json& report,
                                              const std::string& path);

/// Time series of `path` across all entries of `bench`, in ledger order.
/// Entries missing the metric are skipped.
[[nodiscard]] std::vector<SeriesPoint> metric_series(const Ledger& ledger,
                                                     const std::string& bench,
                                                     const std::string& path);

}  // namespace blunt::obs
