// Message block format and routing statistics.
//
// §5.1, step 1(d): "The coarse-grained nature of the BSP* algorithm results
// in large messages ... We cut the messages into blocks of size B.  Each
// block inherits the destination address from its original message."
//
// Because the randomized placement (and the parallel simulator's random
// scattering) delivers blocks in arbitrary order, each block is
// self-describing:
//
//   block  := [u32 dst_group][u16 n_chunks][u16 pad] chunk*   (zero filled)
//   chunk  := [u32 src][u32 dst][u32 seq][u32 total_len][u32 offset]
//             [u16 chunk_len] bytes[chunk_len]
//
// A message may be split across blocks; chunks carry (offset, total_len) so
// the receiver can reassemble in any arrival order.  Dummy blocks (used by
// RoutingMode::padded to realize the paper's "introduce dummy blocks"
// device) carry dst_group == kDummyGroup and are skipped on parse.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bsp/message.hpp"

namespace embsp::sim {

/// How SimulateRouting sizes its work and places blocks (see DESIGN.md):
///  * padded  — every destination group is padded with dummy blocks to its
///              capacity, exactly the paper's analysis device; every
///              superstep performs the worst-case (fixed) number of I/Os.
///  * compact — exact per-group block counts (kept in memory) are used; no
///              dummy traffic.  An engineering optimization ablated in
///              bench/fig2_routing.
///  * deterministic — like compact, but blocks are placed round-robin per
///              bucket instead of by random permutation: the paper's §4
///              remark that "for communication of predetermined size, such
///              as occurs in a CGM, our simulation result can be made
///              deterministic".  Per-bucket balance is exact by
///              construction; a write cycle whose blocks collide on a disk
///              splits into several parallel I/Os.
///  * automatic — compact placement, but when every destination group's
///              buckets provably fit in the simulator's staging budget the
///              MessageStore keeps staged blocks in memory and skips
///              Algorithm 2's two-pass reorganization entirely.  The
///              reorganization exists only because buckets exceed M
///              (Fig. 2); when they don't, delivery is a zero-I/O handoff.
///              Falls back to compact behavior when the budget is too
///              small, so it is always safe to request.
enum class RoutingMode { padded, compact, deterministic, automatic };

inline constexpr std::uint32_t kDummyGroup = 0xFFFFFFFFu;

struct BlockHeader {
  std::uint32_t dst_group = 0;
  std::uint16_t n_chunks = 0;
};

inline constexpr std::size_t kBlockHeaderBytes = 8;
inline constexpr std::size_t kChunkHeaderBytes = 22;

/// Minimum supported block size: header + one chunk header + some payload.
inline constexpr std::size_t kMinBlockSize =
    kBlockHeaderBytes + kChunkHeaderBytes + 2;

/// Packs messages into size-B blocks, all addressed to one destination
/// group, writing each block in place.  Each call to `alloc` must return a
/// writable span of exactly `block_size` bytes; the previously returned
/// span is fully written — header, chunks, zero padding — before the next
/// call, so the callback may ship or enqueue it.  Returns the number of
/// blocks produced (== number of alloc calls).
std::size_t pack_blocks_into(
    std::span<const bsp::MessageRef> messages, std::uint32_t dst_group,
    std::size_t block_size,
    const std::function<std::span<std::byte>()>& alloc);

/// Emit-style adapter over pack_blocks_into: each finished block is handed
/// to `emit` (a span of exactly `block_size` bytes, valid until the next
/// call).  Returns the number of blocks produced.
std::size_t pack_blocks(
    std::span<const bsp::MessageRef> messages, std::uint32_t dst_group,
    std::size_t block_size,
    const std::function<void(std::span<const std::byte>)>& emit);

/// Writes a dummy block (padded mode's filler) for `dst_group` over the
/// whole of `out`.
void make_dummy_block(std::uint32_t dst_group, std::span<std::byte> out);

[[nodiscard]] BlockHeader parse_header(std::span<const std::byte> block);

/// True if the block is a padding block with no message content.
[[nodiscard]] bool is_dummy_block(std::span<const std::byte> block);

/// Walk one block's chunk records without reassembling: `fn` receives each
/// whole record (chunk header + payload, exactly as laid out in the block)
/// plus its destination virtual processor.  The multi-level distributor
/// uses this to re-cut a super-group block into leaf-group blocks by moving
/// records verbatim.  Validates every header field against the block span
/// like Reassembler::absorb (the block came off disk) and throws
/// em::CorruptBlockError on any inconsistency; dummy blocks are skipped.
void for_each_chunk(
    std::span<const std::byte> block,
    const std::function<void(std::span<const std::byte> record,
                             std::uint32_t dst)>& fn);

/// Incremental builder of pack-compatible blocks from whole chunk records
/// (the output side of the multi-level distributor).  append() only accepts
/// records that fit — check fits() first and take() the finished block; a
/// record never spans two output blocks because it is moved verbatim, so a
/// re-cut block parses with the same Reassembler as a packed one.
class BlockBuilder {
 public:
  explicit BlockBuilder(std::size_t block_size);

  /// Whether a whole record of `record_bytes` still fits this block.
  [[nodiscard]] bool fits(std::size_t record_bytes) const;

  /// Append one record (chunk header + payload) verbatim.  Throws
  /// std::invalid_argument if it does not fit or is not a whole record.
  void append(std::span<const std::byte> record);

  [[nodiscard]] bool empty() const { return n_chunks_ == 0; }

  /// Finalize the block into `out` (resized to block_size, zero padded)
  /// addressed to `dst_group`, and reset the builder for the next block.
  void take(std::uint32_t dst_group, std::vector<std::byte>& out);

 private:
  std::size_t block_size_;
  std::vector<std::byte> buf_;  ///< records accumulated after the header
  std::uint16_t n_chunks_ = 0;
};

/// Incremental message reassembly from chunks into an arena.
///
/// Blocks come back from disk, so every header field (n_chunks, chunk_len,
/// offset, total_len) is treated as untrusted input: absorb() bounds-checks
/// each chunk against the block span and the message's total length in
/// 64-bit arithmetic and throws em::CorruptBlockError (retryable — a
/// re-read may heal an in-flight flip) on any inconsistency, never reading
/// or writing out of bounds.  Chunks of one message that overlap (a block
/// absorbed twice) are such an inconsistency too, so a message that take()
/// hands out had every payload byte written by a chunk.
class Reassembler {
 public:
  /// Payload buffers are bump-allocated from `arena`, and take() returns
  /// span views into it (valid until the arena resets).
  /// `max_message_bytes` caps any single message's claimed total_len; a
  /// block claiming more is rejected as corrupt instead of triggering a
  /// giant allocation.  0 disables the cap.  The simulators pass gamma
  /// (the per-processor message-size bound the BSP* model already
  /// enforces on send).
  explicit Reassembler(util::Arena& arena, std::uint64_t max_message_bytes = 0)
      : max_message_bytes_(max_message_bytes), arena_(&arena) {}

  /// Parse one block and absorb its chunks.  `expected_group` validates the
  /// block's header (pass kDummyGroup to skip validation).
  void absorb(std::span<const std::byte> block, std::uint32_t expected_group);

  /// All fully reassembled messages, as views into the arena; throws if
  /// any message is incomplete.
  [[nodiscard]] std::vector<bsp::MessageRef> take();

  [[nodiscard]] std::size_t pending() const { return partial_.size(); }

 private:
  struct Partial {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t seq = 0;
    std::span<std::byte> buf;    ///< the payload, in the arena
    std::uint64_t received = 0;  ///< sum of the absorbed chunk lengths
    /// Bytes [0, prefix) arrived as chunks in offset order; any other
    /// chunk's [begin, end) waits in `spans` until check_complete proves
    /// that no two chunks overlap.
    std::uint64_t prefix = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  };
  // Key is the full (src, dst, seq) triple: seq numbers only order messages
  // with the same (src, dst) pair (bsp::Message), so two messages from one
  // source with equal seq to different virtual processors are distinct and
  // must not share a reassembly slot.
  struct ChunkKey {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t seq;
    bool operator==(const ChunkKey&) const = default;
  };
  struct ChunkKeyHash {
    std::size_t operator()(const ChunkKey& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.src) << 32) ^
                        (static_cast<std::uint64_t>(k.dst) << 16) ^ k.seq;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      h *= 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<ChunkKey, Partial, ChunkKeyHash> partial_;
  std::uint64_t max_message_bytes_ = 0;
  util::Arena* arena_;
  Partial* find_or_create(std::uint32_t src, std::uint32_t dst,
                          std::uint32_t seq, std::uint32_t total_len);
  void check_complete(Partial& p) const;
};

/// Per-invocation statistics of SimulateRouting, used by bench/fig2_routing
/// and the Lemma 2/3 experiments.
struct RoutingStats {
  std::uint64_t blocks_total = 0;      ///< real + dummy blocks routed
  std::uint64_t dummy_blocks = 0;      ///< padding blocks (padded mode)
  std::uint64_t step1_cycles = 0;      ///< parallel read+write pairs, step 1
  std::uint64_t step2_cycles = 0;      ///< parallel read+write pairs, step 2
  std::uint64_t max_chain = 0;         ///< max blocks of one bucket on one
                                       ///< disk (Lemma 2's X_{j,k})
  /// Parallel read+write pairs spent re-cutting super-group blocks into
  /// leaf-group blocks through scratch (multi-level schedules only; the
  /// extra distribution pass a flat schedule does not pay).
  std::uint64_t distribute_cycles = 0;
  RoutingStats& operator+=(const RoutingStats& o) {
    blocks_total += o.blocks_total;
    dummy_blocks += o.dummy_blocks;
    step1_cycles += o.step1_cycles;
    step2_cycles += o.step2_cycles;
    max_chain = std::max(max_chain, o.max_chain);
    distribute_cycles += o.distribute_cycles;
    return *this;
  }
};

}  // namespace embsp::sim
