// Interface between the World and message-passing substrates.
//
// The net module's Network<M> implements DeliverySource; the World enumerates
// pending deliveries as adversary-choosable events and executes the chosen
// one. Keeping only this interface in sim avoids a sim -> net dependency.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace blunt::sim {

struct PendingDelivery {
  int msg_id = -1;
  Pid to = -1;
  std::string summary;  // human-readable message description
};

/// The World's incremental enabled-index, seen from a delivery source. Every
/// source pushes its per-message deltas here. The World enumerates a source
/// only to sync it: at the first scan, and again after a partition opens or
/// heals (deliverability changed with no source mutation). Deltas for an
/// unsynced source are ignored; the next sync enumerates the full set.
class EnabledIndexSink {
 public:
  virtual ~EnabledIndexSink() = default;

  /// A message became deliverable; filed at its msg_id position. `summary`
  /// may be empty; it is only consulted when wants_summaries() is true.
  virtual void source_event_insert(int source_id, int msg_id, Pid to,
                                   std::string&& summary) = 0;

  /// Message `msg_id` (inserted, or enumerated at the last sync) is no longer
  /// deliverable: delivered, its recipient crashed, or hidden.
  virtual void source_event_erase(int source_id, int msg_id) = 0;

  /// True when the World runs at full trace detail and inserts must carry a
  /// formatted summary. Constant for the lifetime of the binding.
  [[nodiscard]] virtual bool source_wants_summaries() const = 0;
};

class DeliverySource {
 public:
  virtual ~DeliverySource() = default;

  /// Append all currently deliverable messages, in canonical (msg_id) order,
  /// to sync the World's index (and for its rescan oracle). `want_summaries`
  /// is false at reduced trace detail: implementations must then leave
  /// `summary` empty instead of formatting one per message.
  virtual void enumerate(std::vector<PendingDelivery>& out,
                         bool want_summaries) const = 0;

  /// Deliver message `msg_id`: remove it from the in-transit set and run the
  /// recipient's handler synchronously. The handler may send further
  /// messages.
  virtual void deliver(int msg_id) = 0;

  /// Drop all in-transit messages addressed to a crashed process and stop
  /// accepting new ones for it.
  virtual void on_crash(Pid pid) = 0;

  /// Append one human-readable line per held or pending item, including
  /// messages currently severed by a partition (which enumerate() hides).
  /// Feeds the World's deadlock diagnostics.
  virtual void describe_pending(std::vector<std::string>& out) const = 0;

  /// Called once when the source is attached to a World: the source keeps the
  /// sink and its source_id, and pushes every change to what enumerate()
  /// would return as an insert or erase delta.
  virtual void bind_enabled_index(EnabledIndexSink* sink, int source_id) = 0;
};

}  // namespace blunt::sim
