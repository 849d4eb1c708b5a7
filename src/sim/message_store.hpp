// On-disk message traffic management for one (real) simulating processor —
// Algorithm 1 step 1(d) plus Algorithm 2 (SimulateRouting).
//
// Lifecycle within one compound superstep:
//
//   fetch_group(g, inbox_arena)
//                       — read group g's reorganized messages, reassembled
//                         into a util::Arena and handed out as MessageRef
//                         views (Fetch Phase)
//   write_messages(...) — pack the MessageRef views generated by the current
//                         group into size-B blocks, written in place into
//                         the D buckets' staging, and stage them in
//                         randomized write cycles (Writing Phase)
//   flush(); reorganize(rng)
//                       — Algorithm 2: move every bucket onto "its" disk
//                         (step 1), then re-stripe each destination group
//                         into standard consecutive format (step 2)
//
// Disk layout (all regions reserved once, reused every superstep):
//   * linked-bucket tracks — allocated/recycled via the free list;
//   * consolidation region — bucket d's blocks gathered on disk d
//     (step 1 output: "Allocate space for a copy of bucket i on disk i");
//   * arena — the reorganized groups: consolidated block t of bucket d
//     lives on disk (d+t) mod D at track d*ceil(cap/D) + t/D, exactly the
//     paper's step 2 formula, so each group occupies consecutive,
//     disk-rotating slots and can be fetched fully disk-parallel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "bsp/message.hpp"
#include "em/disk_array.hpp"
#include "em/linked_buckets.hpp"
#include "em/striped_region.hpp"
#include "em/track_allocator.hpp"
#include "sim/routing.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace embsp::sim {

struct MessageStoreConfig {
  std::uint32_t num_groups = 1;  ///< destination groups handled locally
  /// Max blocks one group may receive per superstep (derived from k*gamma).
  std::uint64_t group_capacity_blocks = 1;
  RoutingMode mode = RoutingMode::compact;
  /// Upper bound on a single reassembled message's size, passed to the
  /// Reassembler in fetch_group so garbled on-disk headers cannot trigger
  /// unbounded allocations.  0 = uncapped; the simulators pass gamma.
  std::uint64_t max_message_bytes = 0;
  /// Staging bytes the store may keep resident (the simulator passes what
  /// SimLayout leaves of M).  reorganize() stages at most this much per
  /// window (see there).  Under RoutingMode::automatic, when every group's
  /// worst-case traffic (num_groups * group_capacity_blocks * B) fits, the
  /// store keeps staged blocks in memory and reorganize()/fetch become a
  /// zero-I/O handoff; otherwise automatic degrades to compact.
  std::uint64_t memory_budget_bytes = 0;

  // --- Multi-level schedule (LayoutPlanner two-level plans) ----------------
  // With leaf_fanout > 1 the store routes at SUPER-group granularity
  // (num_groups above counts super-groups, group_capacity_blocks bounds a
  // super-group's traffic) and re-cuts each super-group through a scratch
  // region into leaf-granular blocks on first fetch; the fetch API then
  // takes GLOBAL LEAF indices.  The in-memory fast path is disabled — a
  // super-group existing at all means the exchange exceeds M.

  /// Leaf groups per super-group; 1 (default) = flat schedule.
  std::uint32_t leaf_fanout = 1;
  /// Total leaf groups (the last super-group may be partially filled).
  std::uint32_t num_leaf_groups = 0;
  /// Scratch slab capacity (blocks) per leaf group for re-cut blocks.
  std::uint64_t leaf_capacity_blocks = 0;
  /// Destination virtual processor -> global leaf group, used while
  /// re-cutting super-group blocks.  Required when leaf_fanout > 1.
  std::function<std::uint32_t(std::uint32_t dst)> leaf_of{};
};

class MessageStore {
 public:
  MessageStore(em::DiskArray& disks, em::TrackAllocators& alloc,
               MessageStoreConfig cfg);

  /// Groups-per-bucket and bucket assignment: bucket q holds blocks for
  /// consecutive groups [q*gpb, (q+1)*gpb) — "each bucket contains the
  /// blocks destined for v/D consecutive virtual processors".
  [[nodiscard]] std::uint32_t bucket_of_group(std::uint32_t g) const;

  // --- Writing phase ------------------------------------------------------

  /// Cut `messages` into blocks by destination group and stage them: each
  /// group's messages are packed by pack_blocks_into straight into the
  /// staged block buffers, and a write cycle goes out the moment it fills.
  void write_messages(std::span<const bsp::MessageRef> messages,
                      const std::function<std::uint32_t(std::uint32_t dst)>&
                          group_of,
                      util::Rng& rng);

  /// Stage one pre-formed block, taking ownership of the buffer (ranks of
  /// p > 1 receive ready-made blocks from their peers).
  void write_block(std::vector<std::byte>&& block, util::Rng& rng);

  /// Write out any pending partial write cycle.
  void flush(util::Rng& rng);

  // --- Write-behind (pipelined simulator) ----------------------------------

  /// Let flush() SUBMIT write cycles instead of blocking on them, keeping
  /// at most reorganize()'s window W = max(1, memory_budget_bytes / (D*B))
  /// cycles outstanding (the oldest is waited when the bound is hit, so the
  /// in-flight blocks stay within the routing budget).  Placement and RNG
  /// draws still happen at submission in call order, so the disk image is
  /// byte-identical to the blocking schedule.  Off by default.
  void enable_write_behind();

  /// Wait out every in-flight write cycle (first error rethrown after the
  /// simulator's usual wait ordering).  Must be called before reorganize()
  /// and before any snapshot/restore.
  void quiesce();

  /// Forget in-flight cycle records without waiting their tokens — valid
  /// only after DiskArray::drain() has settled them (the rollback path).
  void abandon_inflight();

  // --- Reorganization (Algorithm 2) ---------------------------------------

  /// Flush (padding first in padded mode), settle write-behind, then run
  /// both passes of SimulateRouting in windows of
  /// W = max(1, memory_budget_bytes / (D*B)) D-block cycles: per window
  /// one batched parallel read and one batched parallel write, declared at
  /// the cycles the per-cycle schedule spends, with each disk's ops in
  /// ascending track order so adjacent tracks coalesce.  Slots, released
  /// tracks, IoStats, the returned RoutingStats and the disk image are
  /// identical for every W; the window's staging holds only the blocks it
  /// moves (<= W*D).
  RoutingStats reorganize(util::Rng& rng);

  // --- Fetch phase ---------------------------------------------------------

  /// Blocks ready for `g` after the last reorganize (including padding).
  [[nodiscard]] std::uint64_t group_blocks(std::uint32_t g) const;

  /// Blocks carrying real message content (excludes padded-mode dummies).
  [[nodiscard]] std::uint64_t group_real_blocks(std::uint32_t g) const;

  /// Read every block of group `g` (one callback per block, dummies
  /// included — callers usually hand them to a Reassembler which skips
  /// padding).
  void fetch_group_blocks(
      std::uint32_t g,
      const std::function<void(std::span<const std::byte>)>& consume);

  /// Fetch + reassemble into complete messages: payloads are
  /// bump-allocated from `inbox_arena`, and the returned refs stay valid
  /// until it resets.
  [[nodiscard]] std::vector<bsp::MessageRef> fetch_group(
      std::uint32_t g, util::Arena& inbox_arena);

  /// One in-flight group prefetch: the arena reads of fetch_group,
  /// submitted up front (same <=D batching as the blocking path, so model
  /// cost is identical) and reassembled at wait time.  Caller-owned for
  /// double buffering; the buffer is grow-only across supersteps.
  struct PendingFetch {
    std::vector<em::DiskArray::IoToken> tokens;
    std::vector<std::byte> buf;
    std::uint32_t group = 0;
    std::uint64_t count = 0;
    bool active = false;
  };

  /// Submit every arena read of group `g`.  The arena is stable between
  /// reorganize() calls, so prefetching ahead of the compute phase reads
  /// the same bytes the blocking fetch would.
  void fetch_group_submit(std::uint32_t g, PendingFetch& pf);

  /// Wait the submitted reads and reassemble into `inbox_arena`, absorbing
  /// blocks in the same t order as fetch_group.
  [[nodiscard]] std::vector<bsp::MessageRef> fetch_group_wait(
      PendingFetch& pf, util::Arena& inbox_arena);

  /// True when RoutingMode::automatic is active AND the staging budget
  /// admitted the in-memory fast path (reorganize is then a zero-I/O
  /// handoff).
  [[nodiscard]] bool in_memory_routing() const { return mem_mode_; }

  // --- Multi-level schedule -------------------------------------------------

  /// True when this store runs the two-level schedule (leaf_fanout > 1).
  [[nodiscard]] bool hierarchical() const { return cfg_.leaf_fanout > 1; }

  /// Re-cut super-group `super`'s reorganized blocks into leaf-granular
  /// blocks in the scratch region (streaming: <= D super blocks resident
  /// plus fanout one-block builders, so the working set is O((2D+f)*B)
  /// regardless of the super-group's volume).  Idempotent per super-group
  /// until the next reorganize(); the fetch paths call it on demand when a
  /// fetch crosses into a new super-group, so leaf groups must be fetched
  /// in ascending order — exactly the simulators' schedule.
  void distribute(std::uint32_t super);

  /// Real message blocks reorganized but not yet re-cut/fetched — the
  /// final-superstep "undelivered messages" check, valid in both flat and
  /// hierarchical mode (call after reorganize, before any fetch).
  [[nodiscard]] std::uint64_t undelivered_real_blocks() const;

  /// Parallel read/write cycles spent in distribute() so far (the extra
  /// pass the multi-level schedule pays; 0 in flat mode).
  [[nodiscard]] std::uint64_t distribute_cycles() const {
    return dist_cycles_;
  }

  // --- Introspection (tests / benches) -------------------------------------

  [[nodiscard]] const em::LinkedBuckets& buckets() const { return buckets_; }
  [[nodiscard]] const MessageStoreConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t staged_blocks(std::uint32_t g) const {
    return staged_count_[g];
  }

  // --- Superstep-granular recovery -----------------------------------------

  struct PendingBlock {
    std::uint32_t bucket;
    std::vector<std::byte> data;
  };

  /// Complete mutable state of the store: the staging side (pending cycle,
  /// cursors, per-group tallies, linked-bucket chains) and the fetch side
  /// (ready tallies from the last reorganize).  Captured at the recovery
  /// points of the simulators — superstep entry and reorganize entry — and
  /// restored before a re-execution.  Data tracks need no copying: a replay
  /// from restored allocator + RNG state rewrites the same tracks with the
  /// same bytes.
  struct Snapshot {
    std::vector<PendingBlock> pending;
    std::vector<std::uint64_t> rr_next;
    std::vector<std::uint64_t> staged_count;
    std::vector<std::uint64_t> staged_real;
    std::vector<std::uint64_t> ready_count;
    std::vector<std::uint64_t> ready_real;
    std::vector<std::uint64_t> ready_base;
    em::LinkedBuckets::ChainsSnapshot chains;
    /// In-memory routing fast path only: the staged/delivered block sets
    /// (they ARE the store's disk state in that mode).
    std::vector<std::vector<std::vector<std::byte>>> mem_staged;
    std::vector<std::vector<std::vector<std::byte>>> mem_ready;
  };

  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& s);

  // --- Checkpoint capture/restore (off-model; see sim/checkpoint.hpp) -----

  /// Serialize the store's superstep-boundary state into `w`: the fetch
  /// side (per-group ready tallies + every ready block's bytes, dummies
  /// included) and the deterministic-mode round-robin cursors.  Only valid
  /// at a superstep boundary — after reorganize(), the staging side is
  /// provably empty (flushed, drained, zeroed) and is asserted so.  Block
  /// bytes are read back via Disk::peek_track with the fault-unwrapped
  /// backend: no model I/O, no fault-schedule draws.
  void export_state(util::Writer& w);

  /// Restore a record produced by export_state into this (freshly
  /// constructed, same-config) store: rewrites every ready block at its
  /// arena location and reinstates the tallies/cursors, so subsequent
  /// fetches and flushes behave exactly as in the checkpointed run.
  void restore_state(util::Reader& r);

 private:
  /// Capacity/count bookkeeping shared by every staging path; throws on
  /// group range / capacity violations.
  void stage_account(std::uint32_t group, bool dummy);
  /// Staging sink for write_messages and padded mode's dummies: flushes a
  /// full pending cycle, then hands out the next pending block's buffer
  /// (zero-filled) for the caller to fill in place.  The caller flushes the
  /// cycle its last block completes.
  std::span<std::byte> stage_alloc(std::uint32_t group, bool dummy,
                                   util::Rng& rng);
  /// Arena placement of consolidated block t of bucket d.
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> arena_location(
      std::uint32_t bucket, std::uint64_t t) const;
  /// Scratch placement of re-cut block t of local leaf li (same rotating
  /// stripe as the arena, so leaf fetches stay fully disk-parallel).
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> scratch_location(
      std::uint32_t li, std::uint64_t t) const;
  /// Build and submit the batched (coalescible) reads of group `g` into
  /// `buf` (grown as needed); appends the completion token, if any.
  void submit_group_reads(std::uint32_t g, std::vector<std::byte>& buf,
                          std::vector<em::DiskArray::IoToken>& tokens);
  /// Hierarchical counterpart over the scratch region: the reads of local
  /// leaf `li` of the currently distributed super-group.
  void submit_leaf_reads(std::uint32_t li, std::vector<std::byte>& buf,
                         std::vector<em::DiskArray::IoToken>& tokens);

  em::DiskArray* disks_;
  em::TrackAllocators* alloc_;
  MessageStoreConfig cfg_;
  std::size_t block_size_;
  std::uint32_t num_disks_;
  std::uint32_t gpb_;             // groups per bucket
  std::uint64_t bucket_cap_;      // gpb * group_capacity
  std::uint64_t cap_rows_;        // ceil(bucket_cap / D)
  em::LinkedBuckets buckets_;
  std::vector<std::uint64_t> consolidation_start_;  // per disk
  std::vector<std::uint64_t> arena_start_;          // per disk

  // Multi-level schedule state (leaf_fanout > 1 only).
  static constexpr std::uint32_t kNoSuper = 0xFFFFFFFFu;
  std::vector<std::uint64_t> scratch_start_;   // per disk
  std::uint64_t leaf_rows_ = 0;                // ceil(leaf_capacity / D)
  std::uint32_t dist_super_ = kNoSuper;        // super currently in scratch
  std::vector<std::uint64_t> leaf_ready_;      // re-cut blocks per local leaf
  std::uint64_t dist_cycles_ = 0;

  /// One submitted-but-unsettled write cycle: the completion token plus the
  /// block payloads it reads from (kept alive until the token settles, then
  /// recycled through cycle_pool_).
  struct InFlightCycle {
    std::vector<em::DiskArray::IoToken> tokens;  // >1 in deterministic mode
    std::vector<PendingBlock> blocks;
  };
  void retire_oldest_inflight();
  /// D-block cycles the routing budget holds: W = max(1, budget / (D*B)).
  [[nodiscard]] std::uint64_t window_cycles() const;

  std::size_t write_behind_ = 0;             // max in-flight cycles (0 = off)
  std::deque<InFlightCycle> inflight_;
  std::vector<std::vector<PendingBlock>> cycle_pool_;  // buffer recycling
  std::vector<std::byte> fetch_buf_;         // blocking fetch staging

  std::vector<PendingBlock> pending_;        // partial write cycle
  std::vector<std::uint64_t> rr_next_;       // deterministic mode: per-bucket
                                             // round-robin disk cursor
  bool mem_mode_ = false;  // automatic routing, budget admitted
  std::vector<std::vector<std::vector<std::byte>>> mem_staged_;  // per group
  std::vector<std::vector<std::vector<std::byte>>> mem_ready_;   // per group
  std::vector<std::uint64_t> staged_count_;  // per group, writing side
  std::vector<std::uint64_t> staged_real_;   // excluding dummy padding
  std::vector<std::uint64_t> ready_count_;   // per group, fetch side
  std::vector<std::uint64_t> ready_real_;    // excluding dummy padding
  std::vector<std::uint64_t> ready_base_;    // consolidated t-offset
};

}  // namespace embsp::sim
