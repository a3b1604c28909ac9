// Crash-tolerant fuzzing corpus: coverage-novel schedules and shrunk
// violations as JSONL, safe under concurrent writers and kill -9.
//
// Two record kinds share one journal file:
//   * CorpusEntry — a coverage-novel recorded schedule (descriptor list +
//     the coin script and tail seed that reproduce it) with the search
//     bookkeeping the seed scheduler uses (score, execs, chain id);
//   * ViolationRecord — a found violation (lin failure, Figure-1 branch,
//     deadlock, non-termination) together with its ddmin-shrunk schedule
//     and the pretty-printed scripted-adversary repro.
//
// Persistence is the journal layer's (obs/lockfile.hpp): each record is ONE
// CRC-framed line appended with O_APPEND + a single write() under an
// advisory flock, so concurrent shard threads (or processes) never tear a
// line and a torn tail from a kill -9 is sealed off by the next append; the
// loader skips blank/partial/foreign lines instead of failing, so a journal
// truncated by a crash is still loadable and a resumed run simply appends
// again (duplicates are fine, see below).
//
// The journal is an append log, not the artifact. compact() produces the
// canonical corpus: records deduplicated by content key and sorted by a
// total content order, written to a temp file and atomically renamed. The
// canonical bytes depend only on the SET of records, so any append order
// (any --threads), any duplication (kill/resume re-running a half-finished
// shard), and any interleaving produce the identical compacted file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/shrink.hpp"
#include "obs/json.hpp"

namespace blunt::fuzz {

/// A coverage-novel schedule kept as fuzzing seed material.
struct CorpusEntry {
  std::string target;            // "abd_bug" | "figure1"
  std::uint64_t chain_seed = 0;  // fuzz chain that recorded it
  int score = 0;                 // target feedback score when recorded
  std::int64_t execs = 0;        // chain executions spent when recorded
  std::vector<int> coin_script;  // scripted coin prefix
  std::uint64_t coin_tail_seed = 0;  // SeededCoin tail beyond the script
  std::vector<adversary::EventDescriptor> schedule;

  /// Content key (FNV-1a over every replay-relevant field): equal keys mean
  /// "the same corpus fact", so compaction dedupes on it.
  [[nodiscard]] std::uint64_t key() const;

  friend bool operator==(const CorpusEntry&, const CorpusEntry&) = default;
};

/// A violation with its shrunk, replayable counterexample.
struct ViolationRecord {
  std::string target;  // "abd_bug" | "figure1"
  std::string kind;    // "lin" | "figure1_branch" | "deadlock" | "nonterm"
  std::uint64_t chain_seed = 0;
  std::int64_t execs_to_find = 0;  // chain executions until first detection
  std::vector<int> coin_script;
  std::uint64_t coin_tail_seed = 0;
  /// Figure-1 branch records: length and hash of the shared descriptor
  /// prefix through the coin draw (0 for other kinds). Two records with the
  /// same prefix_hash and opposite forced coins form a Figure-1 pair.
  int prefix_len = 0;
  std::uint64_t prefix_hash = 0;
  std::vector<adversary::EventDescriptor> schedule;  // as found
  std::vector<adversary::EventDescriptor> shrunk;    // ddmin output
  std::string repro;  // to_scripted_program(shrunk)

  [[nodiscard]] std::uint64_t key() const;

  friend bool operator==(const ViolationRecord&,
                         const ViolationRecord&) = default;
};

[[nodiscard]] obs::Json entry_to_json(const CorpusEntry& e);
[[nodiscard]] CorpusEntry entry_from_json(const obs::Json& j);
[[nodiscard]] obs::Json violation_to_json(const ViolationRecord& v);
[[nodiscard]] ViolationRecord violation_from_json(const obs::Json& j);

/// Appends one record as a single journal line (obs::locked_append).
/// Throws std::runtime_error on I/O failure.
void append_entry(const std::string& path, const CorpusEntry& e);
void append_violation(const std::string& path, const ViolationRecord& v);

/// Everything readable from a journal (or compacted corpus) file.
struct Corpus {
  std::vector<CorpusEntry> entries;
  std::vector<ViolationRecord> violations;
  int skipped_lines = 0;  // torn, corrupt or foreign lines (blank: ignored)
};

/// Torn-line-tolerant load; a missing file is an empty corpus.
[[nodiscard]] Corpus load_corpus(const std::string& path);

/// Canonicalizes in place: dedupe by key(), then sort by the content order
/// (target, chain_seed, kind, execs, key). After compact(), equal record
/// SETS compare equal as Corpus values.
void compact(Corpus& c);

/// compact()s a copy and writes it as canonical JSONL via temp-file +
/// rename: the output bytes are a pure function of the record set, and a
/// crash mid-write never corrupts an existing corpus file.
void write_compacted(const Corpus& c, const std::string& path);

}  // namespace blunt::fuzz
