// The one state encoding of the game models: a trivially-copyable struct of
// int32 fields (counters, flags, replica values, timestamps), packed one
// signed byte per field into the memo key. One OR-reduced range check per
// packed state asserts every field lies in [-128, 127], which makes the
// encoding injective. `Moves` builds a move's label only when labels were
// requested (GameModel::move_labels), never during a solve.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "game/solver.hpp"

namespace blunt::game {

/// A state struct that `pack` can encode: trivially copyable and made only
/// of int32 fields (no padding, and a whole number of fields).
template <class S>
concept PackableState = std::is_trivially_copyable_v<S> &&
                        std::has_unique_object_representations_v<S> &&
                        sizeof(S) % sizeof(std::int32_t) == 0 &&
                        alignof(S) == alignof(std::int32_t);

template <PackableState S>
inline constexpr std::size_t kPackedSize = sizeof(S) / sizeof(std::int32_t);

/// One signed byte per field. Asserts every field lies in [-128, 127].
template <PackableState S>
[[nodiscard]] std::string pack(const S& state) {
  const auto fields =
      std::bit_cast<std::array<std::int32_t, kPackedSize<S>>>(state);
  std::string out(kPackedSize<S>, '\0');
  char* bytes = out.data();
  // Biased by 128, an in-range field lands in [0, 255]; any other value
  // (either sign, wrapped) sets a bit above the low byte.
  std::uint32_t out_of_range = 0;
  for (std::size_t i = 0; i < kPackedSize<S>; ++i) {
    out_of_range |= static_cast<std::uint32_t>(fields[i]) + 128u;
    bytes[i] = static_cast<char>(fields[i]);
  }
  BLUNT_ASSERT((out_of_range & ~0xFFu) == 0,
               "game state field outside [-128, 127]: not packable");
  return out;
}

/// Inverse of `pack`: sign-extends each byte back into its int32 field.
template <PackableState S>
[[nodiscard]] S unpack(std::string_view packed) {
  BLUNT_ASSERT(packed.size() == kPackedSize<S>,
               "packed game state of " << packed.size() << " bytes, expected "
                                       << kPackedSize<S>);
  std::array<std::int32_t, kPackedSize<S>> fields;
  for (std::size_t i = 0; i < kPackedSize<S>; ++i) {
    fields[i] = static_cast<std::int8_t>(packed[i]);
  }
  return std::bit_cast<S>(fields);
}

/// One expansion's successor list under construction: packs each successor
/// and, only when a label vector is attached, streams its label parts into
/// one string.
template <PackableState S>
class Moves {
 public:
  Moves(Expansion& e, std::vector<std::string>* labels)
      : e_(e), labels_(labels) {}

  template <class... Parts>
  void add(const S& next, const Parts&... label) {
    e_.next.push_back(pack(next));
    if (labels_ == nullptr) return;
    std::ostringstream os;
    (os << ... << label);
    labels_->push_back(os.str());
  }

 private:
  Expansion& e_;
  std::vector<std::string>* labels_;
};

}  // namespace blunt::game
