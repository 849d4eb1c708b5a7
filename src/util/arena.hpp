// Bump allocator backing the zero-copy message path.
//
// The simulators move every message payload through several stages per
// superstep (outbox -> staged blocks -> reassembly -> inbox).  Backing the
// payload bytes with an arena instead of one std::vector per message makes
// the stage handoffs free: a stage passes spans (bsp::MessageRef) into
// memory that stays put, and the whole superstep's allocations are retired
// with one reset() instead of thousands of destructor runs.
//
// Guarantees:
//  * Stability — a span returned by allocate()/copy() never moves until
//    reset() (chunks are never reallocated, only appended), so spans taken
//    early in a superstep stay valid while later allocations happen.
//  * reset() retains capacity: chunks are kept and their cursors rewound,
//    so a steady-state superstep allocates no memory at all.
//  * Single-threaded: one arena belongs to one owner (an Outbox, a
//    simulator group loop, a DistSimulator rank).  Concurrent *reads* of
//    handed-out spans are fine; concurrent allocate() is not.
//
// high_water() feeds the "sim.arena_bytes" gauge: the peak number of
// payload bytes alive at once, i.e. the real memory cost of the zero-copy
// path.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace embsp::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` bytes (8-byte aligned so callers may
  /// overlay trivially-copyable records).  n == 0 yields an empty span.
  std::span<std::byte> allocate(std::size_t n) {
    in_use_ += n;
    if (in_use_ > high_water_) high_water_ = in_use_;
    if (n == 0) return {};
    const std::size_t need = (n + 7) & ~std::size_t{7};
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      if (c.cap - c.used >= need) {
        std::byte* p = c.data.get() + c.used;
        c.used += need;
        return {p, n};
      }
      ++active_;
    }
    // Grow: double the last capacity so a long superstep settles into a few
    // large chunks; oversized requests get a dedicated chunk.
    const std::size_t grown =
        chunks_.empty() ? chunk_bytes_ : chunks_.back().cap * 2;
    const std::size_t cap = need > grown ? need : grown;
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::byte[]>(cap), cap, need});
    active_ = chunks_.size() - 1;
    return {chunks_.back().data.get(), n};
  }

  /// Copy `src` into the arena and return the stable copy.
  std::span<const std::byte> copy(std::span<const std::byte> src) {
    auto dst = allocate(src.size());
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
    return dst;
  }

  /// Invalidate every handed-out span; capacity is retained.
  void reset() {
    for (auto& c : chunks_) c.used = 0;
    active_ = 0;
    in_use_ = 0;
  }

  /// Payload bytes currently alive (since the last reset).
  [[nodiscard]] std::size_t bytes_in_use() const { return in_use_; }
  /// Peak bytes_in_use() over the arena's lifetime.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  /// Total backing capacity currently reserved.
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.cap;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< first chunk worth probing for space
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace embsp::util
