// Machine-readable bench reports.
//
// Every bench binary keeps its human-readable printf table and additionally
// emits BENCH_<name>.json through this class, so the perf trajectory of the
// repo is comparable across runs and PRs. The schema (version 1, documented
// in EXPERIMENTS.md) has four sections:
//
//   metrics     — bench-specific headline numbers (probabilities, counts);
//   registry    — a full obs::MetricsRegistry snapshot from an instrumented
//                 representative run (scheduler steps by kind, messages,
//                 preamble iterations, latency histograms);
//   timings_ms  — named wall-clock phases plus an automatic "total" from
//                 report construction to write();
//   environment — free-form provenance (trial counts, sweep parameters).
//
// Plus two optional sections, emitted only by runs that enable them (absent
// sections keep older reports and baselines schema-valid):
//
//   coverage — execution-coverage observability (unique-fingerprint counts,
//              the shard-indexed growth curve);
//   profile  — deterministic profiling (per-subsystem phase stats and exact
//              work counters, keyed by snapshot name).
//
// Reports land in $BLUNT_BENCH_DIR (default: the current directory).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace blunt::obs {

/// Registry snapshot -> the report's "registry" JSON section.
[[nodiscard]] Json snapshot_to_json(const MetricsSnapshot& s);

/// Inverse of snapshot_to_json (bit-exact roundtrip — histogram JSON carries
/// the raw moments). Used by the experiment engine's shard checkpoints.
/// Throws std::runtime_error on shape violations.
[[nodiscard]] MetricsSnapshot snapshot_from_json(const Json& j);

class BenchReport {
 public:
  /// `name` must match the binary: bench_<name> emits BENCH_<name>.json.
  explicit BenchReport(std::string name);

  // Headline metrics ("metrics" section). Keys are flat strings; reuse the
  // same key across benches for the same quantity ("bad_probability",
  // "trials", ...) so cross-bench tooling stays trivial.
  void set_metric(const std::string& key, double v);
  void set_metric_int(const std::string& key, std::int64_t v);
  void set_metric_string(const std::string& key, std::string v);
  void set_metric_bool(const std::string& key, bool v);
  /// Arbitrary structured payload (per-k sweep rows, strategy dumps, ...).
  void set_metric_json(const std::string& key, Json v);

  /// Records one named wall-clock phase in milliseconds.
  void add_timing_ms(const std::string& label, double ms);

  /// Merges a registry snapshot into the "registry" section
  /// (MetricsSnapshot::merge): counters and same-shape histograms add up,
  /// gauges overwrite by name, so a bench may merge the snapshots of several
  /// instrumented worlds.
  void merge_registry(const MetricsSnapshot& s);

  /// Free-form provenance ("environment" section).
  void set_environment(const std::string& key, std::string value);
  void set_environment_int(const std::string& key, std::int64_t value);

  /// Execution-coverage observability (optional "coverage" section): counts,
  /// the shard-indexed growth curve, and any structured payload. The section
  /// is emitted only if at least one key was set.
  void set_coverage(const std::string& key, Json v);

  /// Deterministic profiling (optional "profile" section): per-subsystem
  /// phase stats and exact work counters, keyed by snapshot name. Same
  /// presence discipline as "coverage": emitted only if a key was set.
  void set_profile(const std::string& key, Json v);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Json to_json() const;

  /// Serializes to BENCH_<name>.json under $BLUNT_BENCH_DIR (default ".").
  /// Returns the path written. Stamps "total" wall-clock if the bench did
  /// not record it explicitly.
  std::string write();

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  JsonObject metrics_;
  JsonObject timings_ms_;
  JsonObject environment_;
  JsonObject coverage_;
  JsonObject profile_;
  MetricsSnapshot registry_;
};

/// Validates the shape every report must satisfy (used by tests and the CI
/// smoke check): schema marker, bench name, the four sections, a total
/// wall-clock timing, and no non-finite numbers anywhere in the document.
/// Returns an explanation for the first violation, empty string when valid.
[[nodiscard]] std::string validate_report_json(const Json& j);

}  // namespace blunt::obs
