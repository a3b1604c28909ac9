// The journal layer: the one writer and the one reader behind every
// append-only JSONL file in the repo — the experiment ledger, the fuzz
// corpus, the engine's shard checkpoint, progress heartbeats and the soak
// state.
//
// Writer contract (locked_append + journal_line):
//
//   * one record per line, appended with O_APPEND as ONE write() under an
//     advisory flock, so concurrent appenders — threads or processes —
//     never interleave mid-line;
//   * before appending, the writer checks (under the lock) that the file
//     ends in '\n'. A writer killed mid-append leaves a torn tail with no
//     newline; the next append seals it into a line of its own instead of
//     gluing its own record onto it and losing both;
//   * journal_line() frames a record as its compact JSON with one trailing
//     member "crc32" — the CRC-32 of the record's own compact JSON — so
//     the line stays plain JSON for any JSONL tool while a reader can tell
//     a flipped bit from a record.
//
// Reader contract (read_journal / decode_journal_line): blank lines are
// ignored; a line that does not decode (torn, corrupt, CRC mismatch) or
// that the caller's callback rejects or throws on is skipped and counted;
// nothing a file holds can make the reader throw. Lines written before
// framing existed (no "crc32" member) still decode as plain JSON objects.
//
// The flock acquisition is bounded and EINTR-safe:
//
//   * LOCK_EX|LOCK_NB attempts with exponential backoff, each failed
//     attempt counted in the process-global lock_retries() counter
//     (surfaced as the `obs.lock_retries` observability counter);
//   * jittered backoff derived from a caller-provided seed via SplitMix64 —
//     fully deterministic for a fixed (seed, attempt), so tests can pin the
//     exact backoff schedule while real writers (seeded from pid) decorrelate;
//   * a final blocking flock that retries EINTR instead of giving up, so the
//     lock is only ever abandoned when the filesystem refuses flock outright
//     (ENOTSUP NFS et al. — callers keep the O_APPEND single-write defense).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "obs/json.hpp"

namespace blunt::obs {

struct LockRetryPolicy {
  /// Non-blocking attempts before falling back to one blocking flock.
  int max_retries = 8;
  /// Backoff before retry i is base_backoff_us * 2^i plus jitter in
  /// [0, base_backoff_us * 2^i) — bounded, so a contended journal never
  /// parks a writer for more than ~2 * base * 2^max_retries microseconds.
  std::int64_t base_backoff_us = 50;
  /// Seeds the jitter stream (SplitMix64 over (seed, attempt)). Writers pass
  /// something process-unique (the pid); tests pass a constant and get a
  /// bit-identical backoff schedule.
  std::uint64_t seed = 0;
};

/// Deterministic backoff for attempt `i` under `p`: exponential base plus
/// SplitMix64 jitter. Pure function of (policy, attempt) — the unit tests
/// pin its schedule.
[[nodiscard]] std::int64_t lock_backoff_us(const LockRetryPolicy& p,
                                           int attempt);

/// Takes LOCK_EX on `fd`: p.max_retries non-blocking attempts with jittered
/// backoff (each miss counted in lock_retries()), then one blocking flock
/// that retries EINTR. Returns true when the lock is held; false only when
/// flock itself is unsupported/failed hard (callers then rely on O_APPEND).
[[nodiscard]] bool acquire_file_lock(int fd, const LockRetryPolicy& p = {});

/// LOCK_UN, tolerating EINTR.
void release_file_lock(int fd);

/// Appends `line` to `path` as one contiguous write: O_APPEND + a single
/// (short-write-resuming, EINTR-retrying) write() under acquire_file_lock,
/// preceded by a '\n' when the file's last byte is not one (sealing a torn
/// tail). This is the one append every journal in the repo funnels through.
/// Throws std::runtime_error on open/write/close failure.
void locked_append(const std::string& path, const std::string& line,
                   const LockRetryPolicy& p = {});

/// The journal line for `record` (a non-empty JSON object): its compact
/// JSON with a trailing "crc32" member, plus '\n'. Throws
/// std::invalid_argument for anything but a non-empty object.
[[nodiscard]] std::string journal_line(const Json& record);

/// Decodes one journal line (without its '\n'): the record of a framed
/// line whose CRC matches, or a pre-framing line that parses as a JSON
/// object. std::nullopt for anything else. Never throws.
[[nodiscard]] std::optional<Json> decode_journal_line(const std::string& line);

/// The one journal reader: decodes every line of `path` in file order and
/// hands each record to `accept`. Blank lines are ignored; a line that does
/// not decode, that `accept` rejects (returns false), or on which `accept`
/// throws is skipped. Returns the number of skipped lines; a missing file
/// reads as an empty journal (0).
int read_journal(const std::string& path,
                 const std::function<bool(const Json&)>& accept);

/// Process-global count of lock-acquisition retries (contended or
/// interrupted attempts) since start/reset — the `obs.lock_retries`
/// observability counter. Telemetry only: it never feeds back into what any
/// writer writes.
[[nodiscard]] std::int64_t lock_retries();
void reset_lock_retries();

}  // namespace blunt::obs
