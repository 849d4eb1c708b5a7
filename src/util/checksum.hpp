// 64-bit block checksums for the disk substrate's integrity envelopes.
//
// The fault model (em/fault_backend.hpp) includes silent bit-rot: a backend
// may return data that differs from what was written without reporting an
// error.  Disks optionally keep one 64-bit checksum per track and verify it
// on every read, turning silent corruption into a classified IoError that
// the retry machinery can act on.
//
// In-house implementation (no external deps): FNV-1a over 8-byte lanes with
// an xxhash-style avalanche finalizer.  Collision quality is far beyond
// what single-bit-flip detection needs, and the 8-byte inner loop keeps the
// cost per block well below the memcpy the transfer already paid for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace embsp::util {

/// Checksum of an arbitrary byte range.  Deterministic across platforms of
/// the same endianness (the simulators only ever compare sums computed in
/// the same process, so endianness never observable).  Also the net
/// tier's frame checksum: a socket post() copies the payload into its send
/// buffer and sums that contiguous copy.
[[nodiscard]] std::uint64_t checksum64(std::span<const std::byte> data);

/// Final avalanche mix — exposed for tests and for composing sums.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace embsp::util
