// Exporters for the deterministic profiler (obs/prof.hpp): JSON round-trip
// for checkpoints and reports, and collapsed-stack flamegraph text. The
// operator-new counting hook also lives in this translation unit's .cpp so
// any binary that pulls the exporters in gets allocation counting for free.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace blunt::obs {

/// {"phases": {name: {"calls": int, "ns": int}}, "counters": {name: int}}.
/// All integers, so dump/parse round-trips bit-for-bit (checkpoint
/// identity). Zero-valued phases and counters are omitted — a snapshot's
/// JSON depends only on the work it observed, never on enum layout.
[[nodiscard]] Json profile_to_json(const ProfileSnapshot& snap);

/// Inverse of profile_to_json. Unknown phase/counter names throw (a
/// checkpoint written by a newer build must fail loudly, not drop work).
[[nodiscard]] ProfileSnapshot profile_from_json(const Json& j);

/// Collapsed-stack flamegraph text: one `root;...;phase <self_ns>` line per
/// phase with calls > 0, stack path read off the static parent table, and
/// weight = inclusive ns minus the children's inclusive ns (clamped at 0 —
/// clock granularity can make a child read longer than its parent). When
/// `root_frame` is non-empty it is prepended to every stack, which is how
/// the per-group snapshots of n_sweep land in one mergeable flamegraph.
[[nodiscard]] std::string profile_to_collapsed_stacks(
    const ProfileSnapshot& snap, const std::string& root_frame = "");

/// Self (exclusive) nanoseconds of one phase: inclusive minus children,
/// clamped at 0.
[[nodiscard]] std::int64_t profile_self_ns(const ProfileSnapshot& snap,
                                           Phase p);

}  // namespace blunt::obs
