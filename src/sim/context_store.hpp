// On-disk storage of virtual processor contexts (Algorithm 1, steps 1(a)
// and 1(e)).
//
//   "We reserve an area of total size v*mu on the disks, v*mu/DB blocks on
//    each disk, where we store the contexts.  We split the context V_j of
//    virtual processor j into blocks of size B and store the i-th block of
//    V_j on disk (i + j*(mu/B)) mod D using track floor((i + j*(mu/B))/D)."
//
// We realize the same idea with a per-context rotation: context j's i-th
// block lives on disk (j + i) mod D inside context j's private track band,
// so reading/writing a group of consecutive contexts drives all D disks in
// parallel even when only each context's *used* blocks are transferred.
//
// Each context slot stores [u32 length][serialized bytes][zero padding].
//
// As an engineering optimization the store keeps each context's current
// length in memory (O(v) words — the same class of metadata as the linked
// buckets' pointer tables) and transfers only the blocks a context
// actually occupies.  The layout (and hence full disk parallelism) is
// unchanged; supersteps in which contexts are small cost proportionally
// less I/O.
//
// Copy discipline: a fetch copies each byte disk -> staging -> state, a
// write-back state -> staging -> disk, and nothing more.  Reads hand out
// views into the staging buffer of their PendingIo instead of copies; a
// view stays valid until the next submit on the same PendingIo (for the
// blocking calls, which share one internal PendingIo, until the next
// blocking read or write).  Each batch's op list is built disk by disk —
// on disk d, context j holds blocks b = (d - j) mod D, b + D, b + 2D, ...
// on consecutive tracks of its band — so per-disk runs come out in order
// with no per-block division or per-disk queue.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "em/striped_region.hpp"
#include "util/serialization.hpp"

namespace embsp::sim {

class ContextStore {
 public:
  /// `max_context_bytes` is the paper's mu (serialized size bound).
  ///
  /// With `journaled`, the store keeps TWO banks per context and writes
  /// always go to the non-live bank; commit_epoch() flips the live bank of
  /// every context written since the last commit, discard_epoch() abandons
  /// them.  Until a context's epoch commits, reads still return its
  /// previous committed payload — this is what makes the context area a
  /// consistent checkpoint at superstep boundaries (§5.1) even when a write
  /// attempt dies mid-superstep.  Costs 2x context disk space; layout and
  /// I/O counts are otherwise unchanged.
  ContextStore(em::DiskArray& disks, em::TrackAllocators& alloc,
               std::uint32_t num_contexts, std::size_t max_context_bytes,
               bool journaled = false);

  /// Blocks per context after padding (mu/B, rounded up, incl. the length
  /// prefix).
  [[nodiscard]] std::uint64_t blocks_per_context() const { return blocks_; }
  [[nodiscard]] std::size_t slot_bytes() const {
    return static_cast<std::size_t>(blocks_) * block_size_;
  }

  /// Physical placement of context `ctx`'s block `block` (for tests).
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> location(
      std::uint32_t ctx, std::uint64_t block) const;

  /// Serializes the context of processor `ctx` into the Writer, which
  /// appends directly to the block-aligned staging buffer (no intermediate
  /// per-context vector).
  using EmitFn = std::function<void(std::uint32_t ctx, util::Writer& w)>;

  /// Payload views into a PendingIo's staging buffer, one per context.
  using Views = std::vector<std::span<const std::byte>>;

  /// One in-flight read or write of a contiguous context range: the staged
  /// bytes, per-context offsets and lengths, the batch's op list, and the
  /// completion tokens of the submitted parallel I/Os.  Owned by the caller
  /// so the pipelined simulator can double-buffer; reused across supersteps
  /// (grow-only buffers).
  struct PendingIo {
    std::vector<em::DiskArray::IoToken> tokens;
    std::vector<std::byte> buf;
    std::vector<std::size_t> ctx_offset;
    std::vector<std::uint32_t> len;  ///< payload length at submission
    std::vector<em::ReadOp> reads;   ///< op list of the last read batch
    std::vector<em::WriteOp> writes;  ///< op list of the last write batch
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool active = false;
  };

  /// Write contexts [first, first+count); `payloads[i]` is the serialized
  /// context of processor first+i and must fit in mu bytes.
  void write(std::uint32_t first,
             std::span<const std::vector<std::byte>> payloads);

  /// Write contexts [first, first+count), serializing each directly into
  /// the staging buffer via `emit` (blocking; same I/O schedule as the
  /// span overload).
  void write(std::uint32_t first, std::uint32_t count, const EmitFn& emit);

  /// Read contexts [first, first+count); returns a copy of each payload
  /// (exactly the bytes previously written).  For tests and tools — the
  /// simulators use the view-returning read_into.
  [[nodiscard]] std::vector<std::vector<std::byte>> read(std::uint32_t first,
                                                         std::uint32_t count);

  /// Blocking read of contexts [first, first+count): `out[i]` views the
  /// payload of context first+i in the store's internal staging, valid
  /// until the next blocking read or write.
  void read_into(std::uint32_t first, std::uint32_t count, Views& out);

  // --- Asynchronous paths (pipelined simulator) ----------------------------
  //
  // Submission stages the data and starts every parallel I/O of the range
  // (same op batching as the blocking calls — one block per disk per
  // operation, so model cost is identical); the matching wait settles the
  // tokens in submission order.  `io.buf` must stay untouched between
  // submit and wait.  Metadata (lengths, journal dirty bits) is updated at
  // submission, exactly when the blocking calls update it.

  void read_submit(std::uint32_t first, std::uint32_t count, PendingIo& io);
  /// Settle `io`'s read; `out[i]` views context io.first+i's payload in
  /// io.buf, valid until the next submit on `io`.
  void read_wait(PendingIo& io, Views& out);
  void write_submit(std::uint32_t first, std::uint32_t count,
                    const EmitFn& emit, PendingIo& io);
  void write_wait(PendingIo& io);

  [[nodiscard]] std::uint32_t num_contexts() const { return num_contexts_; }
  [[nodiscard]] bool journaled() const { return journaled_; }

  /// Journaled mode only: make every write since the last commit/discard
  /// the live version (flip banks).  In-memory metadata flips only —
  /// no I/O.
  void commit_epoch();

  /// Journaled mode only: abandon every uncommitted write; subsequent reads
  /// keep returning the last committed payloads.
  void discard_epoch();

  /// Epoch tag of the committed state: commit_epoch() increments it,
  /// discard_epoch() leaves it — after a rollback the store still holds
  /// (and names) the last committed superstep boundary.  The parallel
  /// simulator's coordinated recovery and the checkpoint manifest both key
  /// on this tag.  0 until the first commit; counts in non-journaled mode
  /// too (commit is then a pure tag bump).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void set_epoch(std::uint64_t e) { epoch_ = e; }

  // --- Checkpoint capture/restore (off-model; see sim/checkpoint.hpp) -----
  //
  // Both paths go through Disk::peek_track/restore_track with the
  // fault-unwrapped backend: no model IoStats, no Disk read/write counters,
  // no fault-schedule draws — checkpointing must not perturb the run it
  // snapshots.

  /// Append context `ctx`'s committed record — live-bank tag, length, and
  /// payload bytes read back from the committed bank — to `w`.
  void export_context(std::uint32_t ctx, util::Writer& w);

  /// Restore one context record produced by export_context into this
  /// (freshly constructed, same-shape) store: rewrites the slot's blocks in
  /// the recorded bank and reinstates the length/bank metadata, so every
  /// subsequent location() and write target matches the checkpointed run's.
  void restore_context(std::uint32_t ctx, util::Reader& r);

 private:
  [[nodiscard]] std::uint64_t blocks_for(std::size_t bytes) const {
    return (bytes + sizeof(std::uint32_t) + block_size_ - 1) / block_size_;
  }

  /// Placement of context `ctx`'s block `block` in bank `bank`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> location_in_bank(
      std::uint32_t ctx, std::uint64_t block, std::uint8_t bank) const;

  /// First track of context `ctx`'s band in bank `bank` on disk `disk`.
  [[nodiscard]] std::uint64_t band_start(std::uint32_t disk, std::uint32_t ctx,
                                         std::uint8_t bank) const {
    return start_tracks_[disk] +
           (static_cast<std::uint64_t>(bank) * num_contexts_ + ctx) * band_;
  }

  /// Walk io's blocks disk by disk from io.ctx_offset/io.len: for each
  /// disk, every context's blocks on it in context order, each context's
  /// on consecutive tracks of its band.  The band is in the live bank
  /// XOR `bank_flip` (journaled mode; 1 targets the non-live bank).  Calls
  /// `push(disk, track, staging_offset)` per block; returns the largest
  /// per-disk block count (the batch's parallel I/Os).
  template <class Push>
  std::uint64_t for_each_block(const PendingIo& io, std::uint8_t bank_flip,
                               Push&& push) const;

  em::DiskArray* disks_;
  std::uint32_t num_contexts_;
  std::size_t max_context_bytes_;
  std::size_t block_size_;
  std::uint64_t blocks_;
  std::uint64_t band_;  ///< tracks per context per disk
  bool journaled_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> start_tracks_;
  std::vector<std::uint32_t> lengths_;  ///< committed length per context
  std::vector<std::uint8_t> bank_;      ///< live bank (journaled mode)
  std::vector<std::uint8_t> dirty_;     ///< written this epoch
  std::vector<std::uint32_t> pending_lengths_;  ///< uncommitted lengths
  PendingIo sync_io_;  ///< staging slot of the blocking read/write calls
};

}  // namespace embsp::sim
