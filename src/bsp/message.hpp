// Messages, inboxes, and outboxes for BSP* programs.
//
// A communication superstep is split (per §4) into a *sending* superstep —
// the program fills an Outbox — and a *receiving* superstep — the runtime
// hands the program an Inbox with everything addressed to it in the previous
// compound superstep.  All three executors (direct runtime, sequential EM
// simulator, parallel EM simulator) move the same message values; only the
// transport differs.
//
// Two payload representations exist:
//  * MessageRef  — a span view into arena-backed storage (util::Arena).
//    An Outbox serializes payloads straight into its arena and hands out
//    refs; the EM simulators route refs through packing, the disks and
//    reassembly into an inbox arena without intermediate vector copies.  A
//    ref is valid for exactly one superstep handoff — until its arena
//    resets.
//  * Message     — owns its payload bytes (std::vector).  Only the in-RAM
//    runtime (bsp::DirectRuntime) uses it: Outbox::take() hands its
//    messages over to the next superstep's owning Inbox.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.hpp"
#include "util/serialization.hpp"

namespace embsp::bsp {

struct Message {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  /// Send order among messages with the same (src, dst); the EM transports
  /// deliver in randomized order, and inboxes re-sort by (src, seq) so every
  /// executor presents an identical inbox to the program.
  std::uint32_t seq = 0;
  std::vector<std::byte> payload;

  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

/// Non-owning message view; payload bytes live in an arena (or any storage
/// that outlives the ref).  Same wire identity as Message.
struct MessageRef {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t seq = 0;
  std::span<const std::byte> payload;

  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

/// Messages received by one virtual processor in one superstep.  Programs
/// see MessageRef views either way; the owning constructor keeps the
/// backing Message vector alive inside the inbox.
class Inbox {
 public:
  /// Owning: the inbox keeps the messages (and their payloads) alive.
  explicit Inbox(std::vector<Message> messages);

  /// Zero-copy: refs must stay valid for the inbox's lifetime (the
  /// simulators keep the backing arena alive across the superstep).
  explicit Inbox(std::vector<MessageRef> messages);

  [[nodiscard]] std::span<const MessageRef> all() const { return messages_; }
  [[nodiscard]] std::size_t count() const { return messages_.size(); }
  [[nodiscard]] std::size_t total_bytes() const;

  /// Decode message i's payload as a single trivially-copyable value.
  template <typename T>
  [[nodiscard]] T value(std::size_t i) const {
    util::Reader r(messages_[i].payload);
    return r.read<T>();
  }

  /// Decode message i's payload as a vector written by Outbox::send_vector.
  template <typename T>
  [[nodiscard]] std::vector<T> vector(std::size_t i) const {
    util::Reader r(messages_[i].payload);
    return r.read_vector<T>();
  }

 private:
  std::vector<Message> owned_;  ///< backing storage for the owning ctor
  std::vector<MessageRef> messages_;
};

/// Messages generated by one virtual processor in one superstep.  Payload
/// bytes are serialized once, directly into the outbox's arena; messages()
/// exposes them as refs, take() materializes owning copies for callers that
/// need the payloads to outlive the outbox.
class Outbox {
 public:
  Outbox(std::uint32_t src, std::uint32_t nprocs);

  /// Copy `payload` into the arena and enqueue it.
  void send(std::uint32_t dst, std::span<const std::byte> payload);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(std::uint32_t dst, const T& value) {
    auto dst_span = reserve(dst, sizeof(T));
    std::memcpy(dst_span.data(), &value, sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_vector(std::uint32_t dst, const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    auto dst_span = reserve(dst, sizeof(n) + v.size() * sizeof(T));
    std::memcpy(dst_span.data(), &n, sizeof(n));
    if (!v.empty()) {
      std::memcpy(dst_span.data() + sizeof(n), v.data(),
                  v.size() * sizeof(T));
    }
  }

  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::span<const MessageRef> messages() const {
    return messages_;
  }

  /// Materialize owning Messages (copies every payload out of the arena)
  /// and reset the outbox.
  [[nodiscard]] std::vector<Message> take();

  /// Drop all messages and recycle the arena (the ref consumer calls this
  /// after packing the refs).  Equivalent to a freshly built Outbox.
  void clear();

  /// Peak arena residency (feeds "sim.arena_bytes").
  [[nodiscard]] std::size_t arena_high_water() const {
    return arena_.high_water();
  }

 private:
  /// Allocate an uninitialized payload of `size` bytes addressed to `dst`
  /// and enqueue its ref; the caller fills the returned span.
  std::span<std::byte> reserve(std::uint32_t dst, std::size_t size);

  std::uint32_t src_;
  std::uint32_t nprocs_;
  std::uint32_t next_seq_ = 0;
  std::size_t total_bytes_ = 0;
  util::Arena arena_;
  std::vector<MessageRef> messages_;
};

/// Canonical inbox order: ascending (src, seq).  Applied by every executor
/// so programs see a deterministic inbox regardless of transport.
void sort_inbox(std::vector<Message>& messages);
void sort_inbox(std::vector<MessageRef>& messages);

}  // namespace embsp::bsp
