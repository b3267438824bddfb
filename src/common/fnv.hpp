#pragma once
/// \file fnv.hpp
/// \brief FNV-1a folding over raw value bits.
///
/// The one FNV-1a of the library. Every fold consumes the exact bit
/// pattern of its input (doubles via their IEEE-754 bits, in memory
/// order), so two inputs fold equal only when the folded values are
/// bitwise identical. Users: the limit-cycle replay machinery
/// (sim/replay.hpp) fingerprints auxiliary closed-loop state, the bank
/// keys attached traces by content (sim/prepared.cpp), and the banded
/// solver pre-filters its factor-slot keys (sparse/solver.cpp).

#include <cstdint>
#include <cstring>
#include <span>

namespace tac3d {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a_bytes(h, &bits, sizeof(bits));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(h, &v, sizeof(v));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  return fnv1a_bytes(h, &v, sizeof(v));
}

inline std::uint64_t fnv1a(std::uint64_t h, int v) {
  return fnv1a_bytes(h, &v, sizeof(v));
}

inline std::uint64_t fnv1a(std::uint64_t h, bool v) {
  const unsigned char b = v ? 1 : 0;
  return fnv1a_bytes(h, &b, sizeof(b));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::span<const double> v) {
  return fnv1a_bytes(h, v.data(), v.size_bytes());
}

inline std::uint64_t fnv1a(std::uint64_t h, std::span<const int> v) {
  return fnv1a_bytes(h, v.data(), v.size_bytes());
}

}  // namespace tac3d
