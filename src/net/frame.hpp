// Wire framing for the socket transport.
//
// Every transmission is one frame:
//
//   offset  size  field
//        0     4  magic        0x454D4250 ("EMBP")
//        4     1  kind         FrameKind
//        5     3  reserved     zero
//        8     4  src          sender rank
//       12     4  len          payload length in bytes
//       16     8  checksum     util::checksum64 of the payload bytes
//       24   len  payload
//
// All integers are native-endian: both ends of a link are the same build on
// the same machine family (the simulators never compare checksums across
// architectures, see util/checksum.hpp).  The checksum turns a torn or
// corrupted stream into a typed CorruptFrameError instead of a silently
// wrong simulation; the magic catches framing desynchronization early.
//
// Frame kinds:
//   hello — handshake; announces the sender's rank after connect().
//   data  — one posted message (Transport::post → one data frame).
//   end   — phase delimiter; "I have entered exchange() and everything I
//           posted to you this phase precedes this frame".  Receiving END
//           from every peer is the barrier.
//   abort — fatal-error broadcast; payload is the human-readable reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "net/transport.hpp"

namespace embsp::net {

enum class FrameKind : std::uint8_t { hello = 0, data = 1, end = 2, abort = 3 };

inline constexpr std::uint32_t kFrameMagic = 0x454D4250;  // "EMBP"
inline constexpr std::size_t kFrameHeaderBytes = 24;
// kMaxFramePayload (net/transport.hpp) caps a frame's payload: senders
// reject larger posts, and a receiver treats a larger header as a
// desynchronized or corrupted stream.

struct FrameHeader {
  FrameKind kind = FrameKind::data;
  std::uint32_t src = 0;
  std::uint32_t len = 0;
  std::uint64_t checksum = 0;
};

inline void encode_frame_header(const FrameHeader& h,
                                std::span<std::byte> out) {
  std::uint8_t buf[kFrameHeaderBytes] = {};
  std::memcpy(buf, &kFrameMagic, 4);
  buf[4] = static_cast<std::uint8_t>(h.kind);
  std::memcpy(buf + 8, &h.src, 4);
  std::memcpy(buf + 12, &h.len, 4);
  std::memcpy(buf + 16, &h.checksum, 8);
  std::memcpy(out.data(), buf, kFrameHeaderBytes);
}

/// Decodes and validates a header.  Throws CorruptFrameError on a bad
/// magic, unknown kind, or an implausible length.
inline FrameHeader decode_frame_header(std::span<const std::byte> in) {
  std::uint32_t magic = 0;
  std::memcpy(&magic, in.data(), 4);
  if (magic != kFrameMagic) {
    throw CorruptFrameError("net: bad frame magic (stream desynchronized)");
  }
  const auto kind = static_cast<std::uint8_t>(in[4]);
  if (kind > static_cast<std::uint8_t>(FrameKind::abort)) {
    throw CorruptFrameError("net: unknown frame kind " + std::to_string(kind));
  }
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind);
  std::memcpy(&h.src, in.data() + 8, 4);
  std::memcpy(&h.len, in.data() + 12, 4);
  std::memcpy(&h.checksum, in.data() + 16, 8);
  if (h.len > kMaxFramePayload) {
    throw CorruptFrameError("net: frame length " + std::to_string(h.len) +
                            " exceeds the sanity cap");
  }
  return h;
}

}  // namespace embsp::net
