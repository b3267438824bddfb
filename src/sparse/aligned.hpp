#pragma once
/// \file aligned.hpp
/// \brief Cache-line-aligned vectors for the solver's streamed arrays.
///
/// The sliced-ELL values, the ILU(0) factors and the Krylov vectors are
/// read in runs of 8 doubles (one slice column; one chunk entry where
/// the ILU(0) apply has 8-row chunks), each starting at a multiple of 8
/// elements. From a 64-byte-aligned base
/// every such run is one cache line; from malloc's 16-byte alignment
/// most of them span two.
///
/// The allocator over-allocates one cache line through the plain
/// operator new and rounds up, keeping the offset in the byte before
/// the aligned block. The aligned operator new would do the same job
/// through glibc's memalign, which left perfbench paper_sweep's peak
/// resident set 2.4 MB (7%) higher.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace tac3d::sparse {

/// Bytes of one cache line, the alignment of every AlignedVector.
inline constexpr std::size_t kCacheLineBytes = 64;

/// std::allocator with 64-byte alignment.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (SIZE_MAX - kCacheLineBytes) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    auto* raw = static_cast<unsigned char*>(
        ::operator new(n * sizeof(T) + kCacheLineBytes));
    // 1..kCacheLineBytes bytes up to the next line boundary.
    const std::size_t lead =
        kCacheLineBytes -
        reinterpret_cast<std::uintptr_t>(raw) % kCacheLineBytes;
    raw[lead - 1] = static_cast<unsigned char>(lead);
    return reinterpret_cast<T*>(raw + lead);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    auto* data = reinterpret_cast<unsigned char*>(p);
    ::operator delete(data - data[-1], n * sizeof(T) + kCacheLineBytes);
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose data() sits at the start of a cache line.
template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace tac3d::sparse
